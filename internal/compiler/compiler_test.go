package compiler_test

import (
	"reflect"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/proc"
	"hipstr/internal/testprogs"
)

const maxSteps = 5_000_000

func runNative(t *testing.T, bin *fatbin.Binary, k isa.Kind) *proc.Process {
	t.Helper()
	p, err := proc.New(bin, k)
	if err != nil {
		t.Fatalf("boot %s: %v", k, err)
	}
	if err := p.RunToExit(maxSteps); err != nil {
		t.Fatalf("run %s: %v", k, err)
	}
	return p
}

// TestCrossISAEquivalence compiles every test program for both ISAs and
// checks that native execution produces identical observable behavior:
// exit code and syscall write trace. This is the core guarantee the
// multi-ISA compiler must provide for migration to be meaningful.
func TestCrossISAEquivalence(t *testing.T) {
	for name, tc := range testprogs.All() {
		t.Run(name, func(t *testing.T) {
			bin, err := compiler.Compile(tc.Mod)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			px := runNative(t, bin, isa.X86)
			pa := runNative(t, bin, isa.ARM)
			if px.ExitCode != tc.Exit {
				t.Errorf("x86 exit = %d, want %d", px.ExitCode, tc.Exit)
			}
			if pa.ExitCode != tc.Exit {
				t.Errorf("arm exit = %d, want %d", pa.ExitCode, tc.Exit)
			}
			if !reflect.DeepEqual(px.Trace, pa.Trace) {
				t.Errorf("trace mismatch: x86 %v vs arm %v", px.Trace, pa.Trace)
			}
		})
	}
}

func TestSymbolTableShape(t *testing.T) {
	bin, err := compiler.Compile(testprogs.SumLoop(10))
	if err != nil {
		t.Fatal(err)
	}
	f := bin.Func("main")
	if f == nil {
		t.Fatal("no main metadata")
	}
	if f.FrameSize == 0 || f.SaveOff <= f.SpillOff || f.SpillOff < f.LocalOff {
		t.Fatalf("frame layout inconsistent: %+v", f)
	}
	if len(f.Blocks) == 0 {
		t.Fatal("no block metadata")
	}
	for _, k := range isa.Kinds {
		if f.Entry[k] != f.Start[k] || f.End[k] <= f.Start[k] {
			t.Fatalf("%s: bad code range [%#x,%#x) entry %#x", k, f.Start[k], f.End[k], f.Entry[k])
		}
		prevEnd := f.Start[k]
		for _, b := range f.Blocks {
			if b.Addr[k] < prevEnd {
				t.Fatalf("%s: block %d overlaps previous (%#x < %#x)", k, b.ID, b.Addr[k], prevEnd)
			}
			if b.End[k] < b.Addr[k] {
				t.Fatalf("%s: block %d negative extent", k, b.ID)
			}
			prevEnd = b.End[k]
		}
	}
}

func TestLoopBlocksGetRegisterBindings(t *testing.T) {
	bin, err := compiler.Compile(testprogs.SumLoop(10))
	if err != nil {
		t.Fatal(err)
	}
	f := bin.Func("main")
	foundLoop := false
	foundRegResident := false
	for _, b := range f.Blocks {
		if !b.InLoop {
			continue
		}
		foundLoop = true
		for _, h := range b.LiveIn {
			if h.InReg(isa.X86) || h.InReg(isa.ARM) {
				foundRegResident = true
			}
		}
	}
	if !foundLoop {
		t.Fatal("no loop blocks detected")
	}
	if !foundRegResident {
		t.Fatal("no register-resident live-ins in loop blocks — loop binding inactive")
	}
	// ARM must bind at least as many values as x86 (more registers).
	x86Saved, armSaved := len(f.SavedRegs[isa.X86]), len(f.SavedRegs[isa.ARM])
	if armSaved < x86Saved {
		t.Fatalf("arm saved %d < x86 saved %d", armSaved, x86Saved)
	}
}

func TestFuncAtAndBlockAt(t *testing.T) {
	bin, err := compiler.Compile(testprogs.Fib(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range isa.Kinds {
		fm := bin.Func("fib")
		got := bin.FuncAt(k, fm.Entry[k])
		if got == nil || got.Name != "fib" {
			t.Fatalf("%s: FuncAt(entry) = %v", k, got)
		}
		mid := fm.Entry[k] + (fm.End[k]-fm.Entry[k])/2
		if g := bin.FuncAt(k, mid); g == nil || g.Name != "fib" {
			t.Fatalf("%s: FuncAt(mid) = %v", k, g)
		}
		if g := bin.FuncAt(k, 0x100); g != nil {
			t.Fatalf("%s: FuncAt(bogus) = %v", k, g)
		}
		fn, blk := bin.BlockAt(k, fm.Entry[k])
		if fn == nil || blk == nil || blk.ID != 0 {
			t.Fatalf("%s: BlockAt(entry) = %v %v", k, fn, blk)
		}
	}
}

func TestFixedSlotRecorded(t *testing.T) {
	bin, err := compiler.Compile(testprogs.AddressTaken())
	if err != nil {
		t.Fatal(err)
	}
	f := bin.Func("main")
	hasFixed := false
	for _, fx := range f.FixedSlot {
		if fx {
			hasFixed = true
		}
	}
	if !hasFixed {
		t.Fatal("address-taken slot not marked fixed")
	}
	// Relocatable offsets must exclude the fixed slot.
	fixedOff := uint32(0)
	for s, fx := range f.FixedSlot {
		if fx {
			fixedOff = f.SlotOff(s)
		}
	}
	for _, off := range f.RelocatableOffsets() {
		if off == fixedOff {
			t.Fatalf("fixed slot offset %#x listed as relocatable", off)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	bin, err := compiler.Compile(testprogs.SumLoop(10))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := bin.Save()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fatbin.LoadBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Module != bin.Module || len(got.Funcs) != len(bin.Funcs) {
		t.Fatal("round trip lost structure")
	}
	p := runNative(t, got, isa.X86)
	if p.ExitCode != 45 {
		t.Fatalf("deserialized binary exit %d, want 45", p.ExitCode)
	}
}

func TestDeterministicCompilation(t *testing.T) {
	a, err := compiler.Compile(testprogs.NestedLoops(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := compiler.Compile(testprogs.NestedLoops(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range isa.Kinds {
		if !reflect.DeepEqual(a.Text[k], b.Text[k]) {
			t.Fatalf("%s text not deterministic", k)
		}
	}
}

func TestEveryBlockEndsInControlTransfer(t *testing.T) {
	bin, err := compiler.Compile(testprogs.Collatz(7))
	if err != nil {
		t.Fatal(err)
	}
	// Decode each block of main and verify the final instruction before
	// the next block boundary is a control transfer — the property the
	// DBT's block-at-a-time translation relies on.
	for _, k := range isa.Kinds {
		f := bin.Func("main")
		text := bin.Text[k]
		base := fatbin.TextBase(k)
		for _, b := range f.Blocks {
			addr := b.Addr[k]
			lastWasControl := false
			for addr < b.End[k] {
				var in isa.Inst
				if err := isa.Decode(k, text[addr-base:], addr, &in); err != nil {
					t.Fatalf("%s block %d: decode at %#x: %v", k, b.ID, addr, err)
				}
				lastWasControl = in.Op.IsControl() && in.Op != isa.OpSys
				addr += uint32(in.Size)
			}
			if addr != b.End[k] {
				t.Fatalf("%s block %d: instruction stream overruns block end", k, b.ID)
			}
			if !lastWasControl {
				t.Fatalf("%s block %d does not end in a control transfer", k, b.ID)
			}
		}
	}
}
