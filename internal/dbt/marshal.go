package dbt

import (
	"hipstr/internal/isa"
	"hipstr/internal/psr"
)

// emitSyscallMarshal emits a program syscall. The kernel ABI reads
// *physical* registers (isa.RetReg carries the number, isa.SyscallArgRegs
// the arguments), but under PSR the architectural values live in
// relocated locations. The marshal moves the return register, then the
// argument registers:
//
//	phase 1: stage each relocated architectural value into the temp area
//	phase 2: save EVERY physical syscall register into the temp area
//	phase 3: load the staged architectural values into their physical regs
//	         ... the syscall trap (x86 int, ARM svc) ...
//	phase 4: route the result register's value to its relocated home
//	phase 5: restore every saved physical register (except the one now
//	         holding the result), so physical state that did not belong to
//	         this function — e.g. a caller's live callee-saved value in
//	         transit under the boundary convention — survives unharmed.
//
// Every word move goes through Asm.LoadWord/StoreWord: one mov on x86, and
// on ARM a load or store whose out-of-range offset is legalized through a
// scratch register.
func (t *translator) emitSyscallMarshal() {
	a, m, k := t.a, t.m, t.k
	sp := isa.StackReg(k)
	ret := isa.RetReg(k)
	var buf [6]isa.Reg
	regs := append(append(buf[:0], ret), isa.SyscallArgRegs(k)...)
	tempAt := func(i int) int32 { return m.TempOff + 4*int32(i) - t.delta }
	saveSlot := func(j int) int32 { return tempAt(len(regs) + j) }
	relocated := func(r isa.Reg) bool {
		l := m.LocOfReg(r)
		return !(l.Kind == psr.LocReg && l.Reg == r)
	}
	// Phase 1: stage relocated architectural values.
	for i, r := range regs {
		if !relocated(r) {
			continue
		}
		l := m.LocOfReg(r)
		if l.Kind == psr.LocReg {
			a.StoreWord(l.Reg, sp, tempAt(i), isa.R12)
		} else {
			tmp := t.tmp()
			a.LoadWord(tmp, sp, l.Off-t.delta, armScratchFor(k, tmp))
			a.StoreWord(tmp, sp, tempAt(i), armScratchFor(k, tmp))
		}
	}
	// Phase 2: save every physical syscall register.
	for j, r := range regs {
		a.StoreWord(r, sp, saveSlot(j), isa.R12)
	}
	// Phase 3: load architectural values into physical registers.
	for i, r := range regs {
		if relocated(r) {
			a.LoadWord(r, sp, tempAt(i), armScratchFor(k, r))
		}
	}
	a.Emit(isa.Inst{Op: isa.OpSys, Imm: vecSyscall})
	// Phase 4: route the result to the return register's relocated home.
	resultHome := isa.NoReg
	switch l := m.LocOfReg(ret); {
	case l.Kind == psr.LocStack:
		a.StoreWord(ret, sp, l.Off-t.delta, isa.R12)
	case l.Reg != ret:
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(l.Reg), Src: isa.R(ret)})
		resultHome = l.Reg
	default:
		resultHome = ret
	}
	// Phase 5: restore physical registers.
	for j, r := range regs {
		if r == resultHome {
			continue
		}
		a.LoadWord(r, sp, saveSlot(j), armScratchFor(k, r))
	}
}
