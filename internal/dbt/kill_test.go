package dbt

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/prog"
	"hipstr/internal/telemetry"
)

// killLog is a tracer sink keeping every kill event.
type killLog []telemetry.Event

func (l *killLog) Emit(e telemetry.Event) {
	if e.Type == telemetry.EvKill {
		*l = append(*l, e)
	}
}

// callThrough compiles a program whose main calls through a global
// function pointer holding fp.
func callThrough(t *testing.T, fp uint32) *fatbin.Binary {
	t.Helper()
	mb := prog.NewModule("poison")
	g := mb.Global("fp", 4, []byte{byte(fp), byte(fp >> 8), byte(fp >> 16), byte(fp >> 24)})
	fb := mb.Func("main", 0)
	fb.CallInd(fb.Load(fb.GlobalAddr(g, 0), 0), false)
	fb.Ret(prog.NoVReg)
	bin, err := compiler.Compile(mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// undecodableText returns a text address of ISA k inside a function at
// which decoding fails: an indirect call there enters the text but cannot
// be translated.
func undecodableText(t *testing.T, bin *fatbin.Binary, k isa.Kind) uint32 {
	t.Helper()
	base := fatbin.TextBase(k)
	text := bin.Text[k]
	var in isa.Inst
	for off := range text {
		addr := base + uint32(off)
		if bin.FuncAt(k, addr) != nil && isa.Decode(k, text[off:], addr, &in) != nil {
			return addr
		}
	}
	t.Fatalf("no undecodable %s text address", k)
	return 0
}

// bootKillVM boots bin on ISA k with every kill event logged and no
// migrator.
func bootKillVM(t *testing.T, bin *fatbin.Binary, k isa.Kind) (*VM, *killLog) {
	t.Helper()
	log := new(killLog)
	cfg := DefaultConfig()
	cfg.MigrateProb = 0
	cfg.NoSharedUnits = true
	cfg.Telemetry = telemetry.New()
	cfg.Telemetry.Trace.AddSink(log)
	vm, err := New(bin, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vm, log
}

// trapPC points the machine just past a trap instruction at site, as a
// trap handler sees it.
func trapPC(m *machine.Machine, site uint32) {
	if m.ISA == isa.ARM {
		m.PC = site + 4
	} else {
		m.PC = site + 2
	}
}

// TestEveryKillCountsOnce drives each software-fault-isolation
// termination, on each ISA that has it, and requires exactly one kill:
// an error wrapping ErrSecurityKill with the site's message, one more
// Stats.Kills and one EvKill naming the ISA and address.
func TestEveryKillCountsOnce(t *testing.T) {
	const killed = "dbt: process killed by security policy: "
	cacheTarget := uint32(fatbin.X86CacheBase + 16)
	nonText := uint32(fatbin.DataBase)
	plain := callThrough(t, nonText) // any program: the driven cases skip its run
	// The pointer lives in data, so its value does not move the text.
	badX86, badARM := undecodableText(t, plain, isa.X86), undecodableText(t, plain, isa.ARM)

	cases := []struct {
		name  string
		isas  []isa.Kind
		bin   *fatbin.Binary
		drive func(vm *VM, k isa.Kind) error // nil: run the program
		addr  func(vm *VM, k isa.Kind) uint32
		msg   string // with %#x for addr
	}{
		{
			name: "indirect call into a code cache",
			isas: isa.Kinds[:], bin: callThrough(t, cacheTarget),
			addr: func(*VM, isa.Kind) uint32 { return cacheTarget },
			msg:  "indirect transfer into code cache at %#x",
		},
		{
			name: "indirect call to a non-text address",
			isas: isa.Kinds[:], bin: callThrough(t, nonText),
			addr: func(*VM, isa.Kind) uint32 { return nonText },
			msg:  "indirect transfer to non-text address %#x",
		},
		{
			name: "indirect call into untranslatable text",
			isas: []isa.Kind{isa.X86}, bin: callThrough(t, badX86),
			addr: func(*VM, isa.Kind) uint32 { return badX86 },
			msg:  "dbt: undecodable code at %#x: ",
		},
		{
			name: "indirect call into untranslatable text",
			isas: []isa.Kind{isa.ARM}, bin: callThrough(t, badARM),
			addr: func(*VM, isa.Kind) uint32 { return badARM },
			msg:  "dbt: undecodable code at %#x: ",
		},
		{
			name: "return into a code cache",
			isas: isa.Kinds[:], bin: plain,
			drive: func(vm *VM, k isa.Kind) error { return ret(vm, k, cacheTarget) },
			addr:  func(*VM, isa.Kind) uint32 { return cacheTarget },
			msg:   "indirect transfer into code cache at %#x",
		},
		{
			name: "return to a non-text address",
			isas: isa.Kinds[:], bin: plain,
			drive: func(vm *VM, k isa.Kind) error { return ret(vm, k, nonText) },
			addr:  func(*VM, isa.Kind) uint32 { return nonText },
			msg:   "indirect transfer to non-text address %#x",
		},
		{
			name: "pop-pc return into a code cache",
			isas: []isa.Kind{isa.ARM}, bin: plain,
			drive: func(vm *VM, k isa.Kind) error { return popPC(vm, k, cacheTarget) },
			addr:  func(*VM, isa.Kind) uint32 { return cacheTarget },
			msg:   "indirect transfer into code cache at %#x",
		},
		{
			name: "pop-pc return to a non-text address",
			isas: []isa.Kind{isa.ARM}, bin: plain,
			drive: func(vm *VM, k isa.Kind) error { return popPC(vm, k, nonText) },
			addr:  func(*VM, isa.Kind) uint32 { return nonText },
			msg:   "indirect transfer to non-text address %#x",
		},
		{
			name: "trap with none registered at its pc",
			isas: isa.Kinds[:], bin: plain,
			drive: func(vm *VM, k isa.Kind) error {
				trapPC(vm.P.M, unusedSite(vm, k))
				return vm.onSyscall(vm.P.M, vecIndirect)
			},
			addr: func(vm *VM, k isa.Kind) uint32 { return unusedSite(vm, k) },
			msg:  "forged or stale trap at %#x",
		},
		{
			name: "unregistered call site",
			isas: isa.Kinds[:], bin: plain,
			drive: func(vm *VM, k isa.Kind) error {
				in := &isa.Inst{Op: isa.OpCall, Addr: unusedSite(vm, k), Size: 4}
				_, _, err := vm.onControl(vm.P.M, in, machine.CtlCall, vm.caches[k].Base, 0)
				return err
			},
			addr: func(vm *VM, k isa.Kind) uint32 { return unusedSite(vm, k) },
			msg:  "unregistered call site %#x",
		},
		{
			name: "untranslatable code reached",
			isas: isa.Kinds[:], bin: plain,
			drive: func(vm *VM, k isa.Kind) error {
				site := unusedSite(vm, k)
				vm.traps[k][site] = trapMeta{vec: vecKill, gen: vm.gen[k]}
				trapPC(vm.P.M, site)
				return vm.onSyscall(vm.P.M, vecKill)
			},
			addr: func(vm *VM, k isa.Kind) uint32 { return unusedSite(vm, k) },
			msg:  "untranslatable code reached (trap at %#x)",
		},
	}
	for _, tc := range cases {
		for _, k := range tc.isas {
			t.Run(fmt.Sprintf("%s/%s", tc.name, k), func(t *testing.T) {
				vm, log := bootKillVM(t, tc.bin, k)
				kills := vm.Stats.Kills
				var err error
				if tc.drive == nil {
					_, err = vm.Run(1_000_000)
				} else {
					err = tc.drive(vm, k)
				}
				addr := tc.addr(vm, k)
				if !errors.Is(err, ErrSecurityKill) {
					t.Fatalf("err %v, want ErrSecurityKill", err)
				}
				// A run's error carries the machine's context before the
				// VM's message.
				want := killed + fmt.Sprintf(tc.msg, addr)
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("err %q, want %q", err, want)
				}
				if n := vm.Stats.Kills - kills; n != 1 {
					t.Fatalf("Stats.Kills rose by %d, want 1", n)
				}
				if len(*log) != 1 {
					t.Fatalf("%d kill events %+v, want 1", len(*log), *log)
				}
				e := (*log)[0]
				if e.ISA != k.String() || e.Addr != addr || !strings.HasSuffix(err.Error(), killed+e.Detail) {
					t.Fatalf("kill event %+v, want ISA %s at %#x with the message of %q", e, k, addr, err)
				}
			})
		}
	}
}

// unusedSite is a code-cache address past every translated unit of ISA
// k: no trap or call is registered there.
func unusedSite(vm *VM, k isa.Kind) uint32 {
	return vm.caches[k].Base + vm.caches[k].Size - 64
}

// ret drives a return executed in ISA k's code cache (x86 ret, ARM
// bx lr) to the source return address target.
func ret(vm *VM, k isa.Kind, target uint32) error {
	in := &isa.Inst{Op: isa.OpRet, Addr: unusedSite(vm, k), Size: 1}
	if k == isa.ARM {
		in = &isa.Inst{Op: isa.OpBx, Dst: isa.R(isa.LR), Addr: unusedSite(vm, k), Size: 4}
	}
	_, _, err := vm.onControl(vm.P.M, in, machine.CtlRet, target, 0)
	return err
}

// popPC drives an ARM pop {..., pc} whose popped word is target through
// its registered trap.
func popPC(vm *VM, k isa.Kind, target uint32) error {
	m := vm.P.M
	site := unusedSite(vm, k)
	vm.traps[k][site] = trapMeta{vec: vecPopPC, gen: vm.gen[k]}
	if err := m.Mem.WriteWord(m.SP(), target); err != nil {
		return err
	}
	trapPC(m, site)
	return vm.onSyscall(m, vecPopPC)
}
