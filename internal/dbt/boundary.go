package dbt

import (
	"hipstr/internal/isa"
	"hipstr/internal/psr"
)

// Call-boundary register marshaling — the core of the paper's procedure
// call transformation (§5.1). Each function's relocation map scatters
// architectural registers differently, so the translated code enforces a
// boundary convention: at every call instruction, function entry, and
// return, architectural register state is in its physical registers.
//
//   - callers de-relocate (Loc -> physical) before a call and re-relocate
//     (physical -> Loc) immediately after it (where the RAT resumes),
//   - callees re-relocate at entry (inside the rewritten prologue) and
//     de-relocate before returning (inside the rewritten epilogue).
//
// Marshaling stages every relocated value through the map's temp area
// first, which makes the moves hazard-free regardless of how the register
// permutation cycles. The staging temporaries are the boundary-dead
// scratch registers (x86 ECX; ARM R12, which is never relocated).

// boundaryTemp returns a register that is architecturally dead at call
// boundaries and safe to clobber during marshaling.
func boundaryTemp(k isa.Kind) isa.Reg {
	if k == isa.X86 {
		return isa.ECX
	}
	return isa.R12
}

// marshalSlot returns the temp-area offset used for architectural
// register r during boundary marshaling.
func marshalSlot(m *psr.Map, r isa.Reg, delta int32) int32 {
	return m.TempOff + 4*int32(r&0xF) - delta
}

// emitDeRelocate emits Loc(r) -> physical r for every relocated register:
// stage every relocated value into the temp area (memory writes only),
// then load each physical register from its slot.
func (t *translator) emitDeRelocate() {
	m := t.m
	k := t.k
	sp := isa.StackReg(k)
	tmp := boundaryTemp(k)
	regs := relocatedRegs(m, k)
	for _, r := range regs {
		l := m.LocOfReg(r)
		slot := marshalSlot(m, r, t.delta)
		if l.Kind == psr.LocReg {
			t.a.StoreWord(l.Reg, sp, slot, armScratchFor(k, l.Reg))
		} else {
			t.a.LoadWord(tmp, sp, l.Off-t.delta, armScratchFor(k, tmp))
			t.a.StoreWord(tmp, sp, slot, armScratchFor(k, tmp))
		}
	}
	for _, r := range regs {
		t.a.LoadWord(r, sp, marshalSlot(m, r, t.delta), armScratchFor(k, r))
	}
}

// emitReRelocate emits physical r -> Loc(r) for every relocated register:
// stage all physical values, then scatter to the relocated homes.
func (t *translator) emitReRelocate() {
	m := t.m
	k := t.k
	sp := isa.StackReg(k)
	tmp := boundaryTemp(k)
	regs := relocatedRegs(m, k)
	for _, r := range regs {
		t.a.StoreWord(r, sp, marshalSlot(m, r, t.delta), armScratchFor(k, r))
	}
	for _, r := range regs {
		l := m.LocOfReg(r)
		slot := marshalSlot(m, r, t.delta)
		if l.Kind == psr.LocReg {
			t.a.LoadWord(l.Reg, sp, slot, armScratchFor(k, l.Reg))
		} else {
			t.a.LoadWord(tmp, sp, slot, armScratchFor(k, tmp))
			t.a.StoreWord(tmp, sp, l.Off-t.delta, armScratchFor(k, tmp))
		}
	}
}

// indirectTargetSlot is the temp-area word (beyond any marshaling slot of
// a real register) used to stage indirect-call targets.
const indirectTargetSlot = 15

// stageIndirectTarget reads an indirect call's target operand through the
// relocation map and parks it in the temp area, returning the canonical
// frame offset the dispatch trap should read.
func (t *translator) stageIndirectTarget(in *isa.Inst, idx int) int32 {
	k := t.k
	sp := isa.StackReg(k)
	slot := t.m.TempOff + 4*indirectTargetSlot
	src := t.lowerOperand(in.Dst, idx)
	if k == isa.X86 {
		if src.Kind == isa.OpdMem {
			tmp := t.tmp()
			t.a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(tmp), Src: src})
			src = isa.R(tmp)
		}
		t.a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.MB(sp, slot-t.delta), Src: src})
		return slot
	}
	vr := src.Reg
	if src.Kind == isa.OpdMem {
		vr = t.tmp()
		t.a.LoadWord(vr, src.Mem.Base, src.Mem.Disp, armScratchFor(k, vr))
	} else if src.Kind == isa.OpdImm {
		vr = t.tmp()
		t.a.Const32(vr, uint32(src.Imm))
	}
	t.a.StoreWord(vr, sp, slot-t.delta, armScratchFor(k, vr))
	return slot
}

// relocatedRegs lists every architectural register whose map entry is not
// the identity, in a stable order: the set every call boundary marshals,
// also used by the VM's software re-relocation on recovery paths. The
// full relocated set is required for soundness: a callee that skipped
// re-relocating some caller-live physical register could still clobber
// it through its translator temporaries or syscall marshaling. (A
// liveness-pruned variant was evaluated and reverted: the ~1% win did not
// justify tracking every possible physical clobber.)
func relocatedRegs(m *psr.Map, k isa.Kind) []isa.Reg {
	var out []isa.Reg
	for i := 0; i < isa.NumRegs(k); i++ {
		r := isa.Reg(i)
		if r == isa.StackReg(k) || (k == isa.ARM && r >= isa.SP) {
			continue
		}
		if m.Relocated(r) {
			out = append(out, r)
		}
	}
	return out
}
