package machine_test

import (
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/perf"
)

// stepLoop returns a machine on ISA k at the head of an endless loop that
// pushes and pops, stores to and loads from the stack, and adds, so every
// kind of logged address occurs.
func stepLoop(t *testing.T, k isa.Kind) *machine.Machine {
	t.Helper()
	const text, stackTop = 0x1000, 0x20000
	r0, r1, scratch := isa.Reg(0), isa.Reg(1), isa.Reg(2)
	sp := isa.StackReg(k)
	a := isa.NewAsm(k, text)
	a.Label("loop")
	if k == isa.X86 {
		a.Emit(isa.Inst{Op: isa.OpPush, Src: isa.R(r0)})
		a.Emit(isa.Inst{Op: isa.OpPop, Dst: isa.R(r1)})
	} else {
		a.Emit(isa.Inst{Op: isa.OpPushM, RegMask: 1<<r0 | 1<<r1})
		a.Emit(isa.Inst{Op: isa.OpPopM, RegMask: 1<<r0 | 1<<r1})
	}
	a.StoreWord(r1, sp, 8, scratch)
	a.LoadWord(r0, sp, 8, scratch)
	a.Emit(isa.Inst{Op: isa.OpAdd, Dst: isa.R(r0), Src: isa.I(1)})
	a.Jmp("loop")
	code, _, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New()
	mm.Map("text", text, mem.PageSize, mem.PermRX)
	mm.WriteForce(text, code)
	mm.Map("stack", stackTop-mem.PageSize, mem.PageSize, mem.PermRW)
	m := machine.New(k, mm)
	m.PC = text
	m.SetSP(stackTop - 64)
	return m
}

// TestStepAllocs pins Step's allocation contract: a step allocates
// nothing, with no observer and with a timing model attached.
func TestStepAllocs(t *testing.T) {
	for _, k := range isa.Kinds {
		for _, timed := range []bool{false, true} {
			m := stepLoop(t, k)
			if timed {
				perf.NewModel(perf.CoreFor(k)).Attach(m)
			}
			step := func() {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				step() // the stack page's first write allocates its frame
			}
			if n := testing.AllocsPerRun(1000, step); n != 0 {
				t.Errorf("%s, model attached %v: %v allocations per Step", k, timed, n)
			}
		}
	}
}
