package gadget

import (
	"encoding/binary"
	"errors"
	"sort"

	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/psr"
)

// Pattern values: stack slots are filled with recognizable attacker data,
// registers with sentinels, so the post-execution state reveals exactly
// which registers a gadget populates from the stack.
const (
	patternBase  = 0xA77AC000 // stack slot i holds patternBase+i
	sentinelBase = 0xC1EA0000 // register r starts as sentinelBase+r<<8
	// PatternSlots is the number of attacker-controlled stack words: the
	// brute-force attacker of §6 sprays entire stack frames, so the
	// window covers a full small frame.
	PatternSlots = 2048
)

// patternImage is the attacker frame as it sits in memory: PatternSlots
// little-endian words, slot i holding patternBase+i. Resetting the frame
// before each gadget is one Write of it, not PatternSlots word stores.
var patternImage = func() (b [4 * PatternSlots]byte) {
	for i := 0; i < PatternSlots; i++ {
		binary.LittleEndian.PutUint32(b[4*i:], patternBase+uint32(i))
	}
	return b
}()

// PatternSlot returns the slot index encoded in an attacker-pattern value,
// or -1.
func PatternSlot(v uint32) int {
	if v >= patternBase && v < patternBase+PatternSlots {
		return int(v - patternBase)
	}
	return -1
}

// Effect is the observable result of executing a gadget against an
// attacker-controlled stack.
type Effect struct {
	Faulted    bool
	DidSyscall bool
	SyscallNum uint32
	// Pops maps registers to the stack slot whose attacker value they
	// received.
	Pops map[isa.Reg]int
	// Clobbered lists registers whose sentinel was destroyed without
	// receiving attacker data.
	Clobbered []isa.Reg
	// NextSlot is the stack slot that supplied the final control-transfer
	// target (the next gadget address in a chain), or -1.
	NextSlot int
	// SPDelta is the net stack-pointer movement.
	SPDelta int32
}

// Viable reports whether the gadget populates at least one register with
// attacker-controlled data and terminates into an attacker-controlled
// transfer — the paper's viability criterion for brute force.
func (e Effect) Viable() bool {
	return !e.Faulted && len(e.Pops) > 0 && e.NextSlot >= 0
}

// SameOutcome reports whether two effects perform the same attacker-
// relevant computation: identical register population and chain slot.
func (e Effect) SameOutcome(o Effect) bool {
	if e.Faulted != o.Faulted || e.NextSlot != o.NextSlot || len(e.Pops) != len(o.Pops) {
		return false
	}
	for r, s := range e.Pops {
		if o.Pops[r] != s {
			return false
		}
	}
	return true
}

// Params counts the randomizable parameters of a gadget under PSR
// (Algorithm 1): each popped register, each clobbered register, and the
// chained return-address location are independently relocated.
func (e Effect) Params() int {
	p := len(e.Pops) + len(e.Clobbered) + 1 // +1 for the return location
	return p
}

// Analyzer executes gadgets concretely against a disposable image of the
// binary.
type Analyzer struct {
	bin *fatbin.Binary
	mem *mem.Memory
	m   *machine.Machine

	stackTop uint32
}

// scratchStack is where the analyzer parks the attacker stack.
const (
	scratchBase = 0xA0000000
	scratchSize = 0x10000
)

// NewAnalyzer builds a native-execution analyzer for bin.
func NewAnalyzer(bin *fatbin.Binary) *Analyzer {
	ram := mem.New()
	bin.Load(ram, 1<<20, 1<<20)
	ram.Map("attack-stack", scratchBase, scratchSize, mem.PermRW)
	a := &Analyzer{bin: bin, mem: ram, stackTop: scratchBase + scratchSize - 0x1000}
	a.m = machine.New(isa.X86, ram)
	return a
}

// prepare resets machine state and rewrites the attacker pattern.
func (a *Analyzer) prepare(k isa.Kind) uint32 {
	a.m.State = machine.State{ISA: k}
	for r := 0; r < 16; r++ {
		a.m.Regs[r] = sentinelBase + uint32(r)<<8
	}
	sp := a.stackTop - 4*PatternSlots
	a.mem.Write(sp, patternImage[:])
	a.m.SetSP(sp)
	return sp
}

// observe extracts the effect from post-run state.
func (a *Analyzer) observe(e *Effect, k isa.Kind, read func(isa.Reg) (uint32, bool)) {
	e.Pops = make(map[isa.Reg]int)
	for r := 0; r < isa.NumRegs(k); r++ {
		reg := isa.Reg(r)
		if reg == isa.StackReg(k) || (k == isa.ARM && reg >= isa.SP) {
			continue
		}
		v, ok := read(reg)
		if !ok {
			continue
		}
		if slot := PatternSlot(v); slot >= 0 {
			e.Pops[reg] = slot
		} else if v != sentinelBase+uint32(r)<<8 {
			e.Clobbered = append(e.Clobbered, reg)
		}
	}
	sort.Slice(e.Clobbered, func(i, j int) bool { return e.Clobbered[i] < e.Clobbered[j] })
}

// NativeEffect executes the gadget without PSR and reports its effect —
// what the attacker expects the gadget to do.
func (a *Analyzer) NativeEffect(g *Gadget) Effect {
	return a.run(g, a.prepare(g.ISA))
}

// run executes g from the prepared state whose stack pointer is sp0.
func (a *Analyzer) run(g *Gadget, sp0 uint32) Effect {
	e := Effect{NextSlot: -1}
	a.m.PC = g.Addr
	done := false
	a.m.OnControl = func(m *machine.Machine, in *isa.Inst, kind machine.ControlKind, target, retAddr uint32) (uint32, uint32, error) {
		if kind.IsIndirect() {
			if slot := PatternSlot(target); slot >= 0 {
				e.NextSlot = slot
			}
			done = true
			m.Halted = true
		}
		return target, retAddr, nil
	}
	a.m.Syscall = func(m *machine.Machine, vector int32) error {
		e.DidSyscall = true
		e.SyscallNum = m.Regs[isa.RetReg(m.ISA)]
		return nil
	}
	for steps := 0; steps < g.Len+4 && !done; steps++ {
		if err := a.m.Step(); err != nil {
			e.Faulted = true
			break
		}
		if a.m.Halted {
			break
		}
	}
	if !done && !e.Faulted {
		// Never reached its indirect transfer (e.g. a mid-gadget halt).
		e.Faulted = true
	}
	e.SPDelta = int32(a.m.SP() - sp0)
	a.observe(&e, g.ISA, func(r isa.Reg) (uint32, bool) { return a.m.Regs[r], true })
	return e
}

// TranslatedEffect executes the gadget under the given PSR virtual
// machine's relocation maps and reports the architectural effect as the
// next gadget would observe it (registers read through the relocation
// map). The VM's process state is used as scratch; callers should use a
// dedicated analysis VM.
func TranslatedEffect(vm *dbt.VM, g *Gadget) Effect {
	e := Effect{NextSlot: -1}
	k := g.ISA
	fn := vm.Bin.FuncAt(k, g.Addr)
	if fn == nil {
		e.Faulted = true
		return e
	}
	pmap := vm.MapOf(fn)[k]
	cacheAddr, err := vm.EnsureTranslated(k, g.Addr)
	if err != nil {
		e.Faulted = true
		return e
	}
	m := vm.P.M
	m.State = machine.State{ISA: k}
	vm.P.Exited = false
	for r := 0; r < 16; r++ {
		m.Regs[r] = sentinelBase + uint32(r)<<8
	}
	// Scatter the sentinels to their relocated homes so the gadget's
	// reads observe a coherent relocated state.
	spTop := uint32(fatbin.StackTop - 0x1000)
	sp := spTop - 4*PatternSlots
	vm.P.Mem.Write(sp, patternImage[:])
	m.SetSP(sp)
	if err := vm.ApplyReRelocate(pmap); err != nil {
		e.Faulted = true
		return e
	}
	m.PC = cacheAddr
	// Run until the gadget's transfer escapes: a security event whose
	// target is attacker data kills the process (non-text target), which
	// is exactly the signal we want.
	budget := uint64(g.Len*20 + 60)
	_, runErr := vm.Run(budget)
	if runErr != nil {
		if errors.Is(runErr, dbt.ErrSecurityKill) {
			if slot := PatternSlot(vm.LastEventTarget); slot >= 0 {
				e.NextSlot = slot
			} else {
				e.Faulted = true
			}
		} else {
			e.Faulted = true
		}
	} else {
		// Still running or halted without an escaping transfer.
		e.Faulted = true
	}
	// Read the architectural register state through the relocation map.
	read := func(r isa.Reg) (uint32, bool) {
		l := pmap.LocOfReg(r)
		if l.Kind == psr.LocReg {
			return m.Regs[l.Reg], true
		}
		v, err := vm.P.Mem.ReadWord(m.SP() + uint32(l.Off))
		if err != nil {
			return 0, false
		}
		return v, true
	}
	e.SPDelta = int32(m.SP() - sp)
	a := Analyzer{} // reuse observe
	a.observe(&e, k, read)
	return e
}
