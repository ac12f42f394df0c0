// Command fatdump inspects a fat binary: per-function dual-ISA
// disassembly, the extended symbol table (frame layout, relocatable
// offsets, per-block live-in homes, cross-ISA call sites), and — with
// -psr — the PSR-translated form of a function under a given seed,
// showing exactly how the relocation map rewrote it.
package main

import (
	"flag"
	"fmt"
	"log"

	"hipstr"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
)

func main() {
	name := flag.String("workload", "libquantum", "benchmark to inspect")
	fnName := flag.String("func", "main", "function to dump")
	showPSR := flag.Bool("psr", false, "also dump the PSR translation")
	seed := flag.Int64("seed", 1, "randomization seed for -psr")
	symtab := flag.Bool("symtab", true, "print the extended symbol table entry")
	flag.Parse()

	bin, err := hipstr.CompileWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	fn := bin.Func(*fnName)
	if fn == nil {
		log.Fatalf("no function %q; have %d functions (try w000, main, libc_write)", *fnName, len(bin.Funcs))
	}

	if *symtab {
		dumpSymtab(fn)
	}
	for _, k := range []hipstr.ISA{hipstr.X86, hipstr.ARM} {
		fmt.Printf("\n-- %s text [%#x, %#x) --\n", k, fn.Start[k], fn.End[k])
		dumpRange(bin.Text[k], fatbin.TextBase(k), k, fn.Start[k], fn.End[k])
	}

	if *showPSR {
		dumpPSR(bin, fn, *seed)
	}
}

func dumpSymtab(fn *fatbin.FuncMeta) {
	fmt.Printf("function %s: %d args, %d vregs, %d slots\n",
		fn.Name, fn.NumArgs, fn.NVRegs, fn.NSlots)
	fmt.Printf("frame %#x bytes: locals@%#x spills@%#x saves@%#x ret@%#x\n",
		fn.FrameSize, fn.LocalOff, fn.SpillOff, fn.SaveOff, fn.RetAddrOff())
	fmt.Printf("relocatable offsets: %d; call sites: %d\n",
		len(fn.RelocatableOffsets()), len(fn.CallSites))
	for i := range fn.Blocks {
		b := &fn.Blocks[i]
		fmt.Printf("  block %2d  x86 [%#x,%#x)  arm [%#x,%#x)  loop=%-5v live-in:",
			b.ID, b.Addr[isa.X86], b.End[isa.X86], b.Addr[isa.ARM], b.End[isa.ARM], b.InLoop)
		for _, h := range b.LiveIn {
			fmt.Printf(" v%d@%#x", h.VReg, h.FrameOff)
			if h.InReg(isa.X86) {
				fmt.Printf("/%s", h.Reg[isa.X86].Name(isa.X86))
			}
			if h.InReg(isa.ARM) {
				fmt.Printf("/%s", h.Reg[isa.ARM].Name(isa.ARM))
			}
		}
		fmt.Println()
	}
}

func dumpRange(text []byte, base uint32, k isa.Kind, start, end uint32) {
	addr := start
	for addr < end {
		off := addr - base
		if off >= uint32(len(text)) {
			return
		}
		var in isa.Inst
		if err := isa.Decode(k, text[off:], addr, &in); err != nil {
			fmt.Printf("  %08x: .byte %#02x\n", addr, text[off])
			addr++
			continue
		}
		fmt.Printf("  %s\n", in.String())
		addr += uint32(in.Size)
	}
}

func dumpPSR(bin *hipstr.Binary, fn *fatbin.FuncMeta, seed int64) {
	cfg := dbt.DefaultConfig()
	cfg.Seed = seed
	cfg.MigrateProb = 0
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := vm.MapOf(fn)[isa.X86]
	fmt.Printf("\n-- PSR relocation map (seed %d) --\n", seed)
	fmt.Printf("frame %#x -> %#x (randomization space %#x), ret slot %#x -> %#x\n",
		fn.FrameSize, m.NewFrameSize, m.RandSpace, fn.RetAddrOff(), m.RetOff)
	for r := 0; r < 8; r++ {
		reg := isa.Reg(r)
		if reg == isa.ESP {
			continue
		}
		loc := m.LocOfReg(reg)
		marker := ""
		if m.Relocated(reg) {
			marker = "  <- relocated"
		}
		fmt.Printf("  %s -> %s%s\n", reg.Name(isa.X86), loc, marker)
	}
	for i, a := range m.ArgOff {
		fmt.Printf("  arg %d -> caller frame +%#x\n", i, a)
	}
	cacheAddr, err := vm.EnsureTranslated(isa.X86, fn.Entry[isa.X86])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- translated entry unit at %#x --\n", cacheAddr)
	addr := cacheAddr
	var win [16]byte
	for i := 0; i < 64; i++ {
		n, err := vm.P.Mem.FetchInto(addr, win[:])
		if err != nil {
			break
		}
		var in isa.Inst
		if err := isa.Decode(isa.X86, win[:n], addr, &in); err != nil {
			break
		}
		fmt.Printf("  %s\n", in.String())
		addr += uint32(in.Size)
		if in.Op == isa.OpJmp || in.Op == isa.OpRet || in.Op == isa.OpHlt {
			break
		}
	}
}
