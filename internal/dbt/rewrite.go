package dbt

import (
	"hipstr/internal/isa"
	"hipstr/internal/psr"
)

// rewriteControl lowers the control transfers both ISAs share — program
// syscalls and foreign trap vectors, direct jumps, branches and calls,
// indirect calls, and indirect jumps (x86 jmp*, ARM bx through any register
// but lr) — and reports whether in was one of them. Returns (x86 ret, ARM
// bx lr) stay with rewriteX86 and rewriteARM.
func (t *translator) rewriteControl(in *isa.Inst, idx int) bool {
	switch in.Op {
	case isa.OpSys:
		if in.Imm == vecSyscall {
			t.emitSyscallMarshal()
			break
		}
		// Foreign int vectors (including attempts to forge VM traps) are
		// software-fault-isolated away.
		t.emitKill()
	case isa.OpJmp:
		t.emitChain(in.Target, isa.OpJmp, isa.CondAlways)
	case isa.OpJcc:
		t.emitChain(in.Target, isa.OpJcc, in.Cond)
		t.emitChain(in.Addr+uint32(in.Size), isa.OpJmp, isa.CondAlways)
	case isa.OpCall:
		t.emitDirectCall(in)
	case isa.OpCallI:
		// Stage the call target from relocated state before the boundary
		// marshal rearranges registers, then trap for dispatch.
		slot := t.stageIndirectTarget(in, idx)
		t.emitDeRelocate()
		t.emitTrapHere(trapMeta{
			vec:        vecIndirect,
			isCall:     true,
			srcRet:     in.Addr + uint32(in.Size),
			delta:      t.delta,
			fnIndex:    t.fn.Index,
			targetSlot: slot,
		})
		t.emitReRelocate() // RAT resume point
		// The unit ends here; straight-line flow continues at the source
		// return address in its own unit.
		t.emitChain(in.Addr+uint32(in.Size), isa.OpJmp, isa.CondAlways)
	case isa.OpBx:
		if in.Dst.IsReg(isa.LR) {
			return false
		}
		fallthrough
	case isa.OpJmpI:
		t.emitTrapHere(trapMeta{
			vec:     vecIndirect,
			operand: in.Dst,
			delta:   t.delta,
			fnIndex: t.fn.Index,
		})
	default:
		return false
	}
	return true
}

// rewriteX86 emits the PSR transformation of one x86 instruction: the
// addressing-mode transformation of §5.1, plus the procedure-call,
// implicit-register, and stack-pointer fixups.
func (t *translator) rewriteX86(in *isa.Inst, idx int) {
	a := t.a
	fs := int32(t.fn.FrameSize)
	nfs := int32(t.m.NewFrameSize)
	esp := isa.R(isa.ESP)
	switch in.Op {
	case isa.OpNop:
		a.Emit(isa.Inst{Op: isa.OpNop})
	case isa.OpHlt:
		a.Emit(isa.Inst{Op: isa.OpHlt})
	case isa.OpSub:
		// Frame allocation: `sub esp, FrameSize` relocates the return
		// address and widens the frame by the randomization space.
		if in.Dst.IsReg(isa.ESP) && !in.ByteOp && in.Src.Kind == isa.OpdImm && in.Src.Imm == fs {
			// Prologue: relocate the return address into the widened
			// frame, then re-relocate register state from the boundary
			// (physical) convention into this function's map.
			tmp := isa.EDX // architecturally dead at function entry
			a.Emit(isa.Inst{Op: isa.OpPop, Dst: isa.R(tmp)})
			a.Emit(isa.Inst{Op: isa.OpSub, Dst: esp, Src: isa.I(nfs)})
			a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.MB(isa.ESP, t.m.RetOff), Src: isa.R(tmp)})
			t.delta = 0
			t.emitReRelocate()
			return
		}
		if in.Dst.IsReg(isa.ESP) && !in.ByteOp && in.Src.Kind == isa.OpdImm {
			a.Emit(*in)
			t.delta -= in.Src.Imm
			return
		}
		t.rewriteALU(in, idx)
	case isa.OpAdd:
		// Frame teardown: fetch the relocated return address back to the
		// canonical position the following `ret` expects.
		if in.Dst.IsReg(isa.ESP) && !in.ByteOp && in.Src.Kind == isa.OpdImm && in.Src.Imm == fs {
			// Epilogue: de-relocate register state back to the boundary
			// convention, then fetch the relocated return address to the
			// canonical position the following `ret` expects.
			t.emitDeRelocate()
			tmp := isa.EDX // dead at return (only EAX carries a value out)
			a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(tmp), Src: isa.MB(isa.ESP, t.m.RetOff)})
			a.Emit(isa.Inst{Op: isa.OpAdd, Dst: esp, Src: isa.I(nfs)})
			a.Emit(isa.Inst{Op: isa.OpPush, Src: isa.R(tmp)})
			t.delta = 0
			return
		}
		if in.Dst.IsReg(isa.ESP) && !in.ByteOp && in.Src.Kind == isa.OpdImm {
			a.Emit(*in)
			t.delta += in.Src.Imm
			return
		}
		t.rewriteALU(in, idx)
	case isa.OpMov, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpCmp, isa.OpTest:
		t.rewriteALU(in, idx)
	case isa.OpLea:
		src := t.lowerOperand(in.Src, idx)
		dst := t.lowerOperand(in.Dst, idx)
		if dst.Kind == isa.OpdReg {
			a.Emit(isa.Inst{Op: isa.OpLea, Dst: dst, Src: src})
			return
		}
		tmp := t.tmp()
		a.Emit(isa.Inst{Op: isa.OpLea, Dst: isa.R(tmp), Src: src})
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: dst, Src: isa.R(tmp)})
	case isa.OpInc, isa.OpDec, isa.OpNeg, isa.OpNot:
		dst := t.lowerOperand(in.Dst, idx)
		op := in.Op
		if dst.Kind == isa.OpdMem && (op == isa.OpInc || op == isa.OpDec) {
			// No inc/dec m32 in the encoder subset: use add/sub 1.
			alt := isa.OpAdd
			if op == isa.OpDec {
				alt = isa.OpSub
			}
			a.Emit(isa.Inst{Op: alt, Dst: dst, Src: isa.I(1)})
			return
		}
		a.Emit(isa.Inst{Op: op, Dst: dst})
	case isa.OpMul:
		dst := t.lowerOperand(in.Dst, idx)
		src := t.lowerOperand(in.Src, idx)
		src2 := t.lowerOperand(in.Src2, idx)
		if dst.Kind == isa.OpdReg {
			a.Emit(isa.Inst{Op: isa.OpMul, Dst: dst, Src: src, Src2: src2})
			return
		}
		tmp := t.tmp()
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(tmp), Src: dst})
		if src.Kind == isa.OpdImm {
			a.Emit(isa.Inst{Op: isa.OpMul, Dst: isa.R(tmp), Src: src, Src2: src2})
		} else {
			a.Emit(isa.Inst{Op: isa.OpMul, Dst: isa.R(tmp), Src: src})
		}
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: dst, Src: isa.R(tmp)})
	case isa.OpDiv:
		t.rewriteDivX86(in, idx)
	case isa.OpShl, isa.OpShr:
		if in.Src.IsReg(isa.ECX) {
			if l := t.m.LocOfReg(isa.ECX); l.Kind == psr.LocStack {
				a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.ECX), Src: isa.MB(isa.ESP, l.Off-t.delta)})
			}
			dst := t.lowerOperand(in.Dst, idx)
			a.Emit(isa.Inst{Op: in.Op, Dst: dst, Src: isa.R(isa.ECX)})
			return
		}
		dst := t.lowerOperand(in.Dst, idx)
		a.Emit(isa.Inst{Op: in.Op, Dst: dst, Src: in.Src})
	case isa.OpPush:
		src := t.lowerOperand(in.Src, idx)
		a.Emit(isa.Inst{Op: isa.OpPush, Src: src})
		t.delta -= 4
	case isa.OpPop:
		t.delta += 4
		dst := t.lowerOperand(in.Dst, idx) // lowered with post-pop delta
		if dst.Kind == isa.OpdReg {
			a.Emit(isa.Inst{Op: isa.OpPop, Dst: dst})
			return
		}
		tmp := t.tmp()
		a.Emit(isa.Inst{Op: isa.OpPop, Dst: isa.R(tmp)})
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: dst, Src: isa.R(tmp)})
	case isa.OpLeave:
		// mov esp, ebp ; pop ebp — under relocation, fetch arch EBP's
		// value from its home, then pop into the home.
		l := t.m.LocOfReg(isa.EBP)
		if l.Kind == psr.LocReg {
			a.Emit(isa.Inst{Op: isa.OpMov, Dst: esp, Src: isa.R(l.Reg)})
			a.Emit(isa.Inst{Op: isa.OpPop, Dst: isa.R(l.Reg)})
		} else {
			a.Emit(isa.Inst{Op: isa.OpMov, Dst: esp, Src: isa.MB(isa.ESP, l.Off-t.delta)})
			tmp := t.tmp()
			a.Emit(isa.Inst{Op: isa.OpPop, Dst: isa.R(tmp)})
			// ESP no longer frame-relative; best effort for gadget code.
			a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.MB(isa.ESP, l.Off), Src: isa.R(tmp)})
		}
		t.delta = 0
	case isa.OpRet:
		a.Emit(isa.Inst{Op: isa.OpRet, Imm: in.Imm})
	default:
		t.emitKill()
	}
}

// rewriteALU handles the two-operand register/memory forms: both operands
// are lowered; when both land in memory, the source is staged through a
// temporary (the paper's "additional instructions only when more than one
// operand is relocated to memory").
func (t *translator) rewriteALU(in *isa.Inst, idx int) {
	dst := t.lowerOperand(in.Dst, idx)
	src := t.lowerOperand(in.Src, idx)
	if dst.Kind == isa.OpdMem && src.Kind == isa.OpdMem {
		tmp := t.tmp()
		t.a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(tmp), Src: src, ByteOp: in.ByteOp})
		src = isa.R(tmp)
	}
	t.a.Emit(isa.Inst{Op: in.Op, Dst: dst, Src: src, ByteOp: in.ByteOp})
}

// rewriteDivX86 marshals the implicit EAX/EDX operands of division.
func (t *translator) rewriteDivX86(in *isa.Inst, idx int) {
	a := t.a
	locA := t.m.LocOfReg(isa.EAX)
	locD := t.m.LocOfReg(isa.EDX)
	if locA.Kind == psr.LocStack {
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.EAX), Src: isa.MB(isa.ESP, locA.Off-t.delta)})
	}
	// The divisor may legitimately be physical EAX/EDX: division reads
	// its operands before writing the quotient/remainder registers.
	src := t.lowerOperand(in.Src, idx)
	a.Emit(isa.Inst{Op: isa.OpDiv, Dst: isa.R(isa.EAX), Src: src})
	if locA.Kind == psr.LocStack {
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.MB(isa.ESP, locA.Off-t.delta), Src: isa.R(isa.EAX)})
	}
	if locD.Kind == psr.LocStack {
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.MB(isa.ESP, locD.Off-t.delta), Src: isa.R(isa.EDX)})
	}
}

// emitDirectCall emits a translated direct call: target chained through
// the cache (or a patchable trap), with the call site recorded so the
// modified call macro-op can push the source return address and update the
// RAT.
func (t *translator) emitDirectCall(in *isa.Inst) {
	srcRet := in.Addr + uint32(in.Size)
	t.emitDeRelocate() // boundary convention: physical registers at calls
	lbl := t.newLabel("call")
	t.a.Label(lbl)
	if cacheAddr, ok := t.vm.caches[t.k].Lookup(in.Target); ok {
		t.a.Emit(isa.Inst{Op: isa.OpCall, Target: cacheAddr})
	} else {
		stub := t.newLabel("stub")
		t.a.EmitTo(isa.Inst{Op: isa.OpCall}, stub)
		t.pendingStub(stub, lbl, in.Target, isa.OpCall, isa.CondAlways)
	}
	t.newCalls = append(t.newCalls, pendingCall{label: lbl, srcRet: srcRet})
	t.emitReRelocate() // the RAT resumes here after the callee returns
}

// rewriteARM emits the PSR transformation of one ARM instruction. ARM is a
// load/store ISA: relocated sources are fetched into temporaries and
// relocated destinations stored back explicitly.
func (t *translator) rewriteARM(in *isa.Inst, idx int) {
	a := t.a
	sp := isa.SP
	// loadSrc returns a register holding the operand's value.
	loadSrc := func(o isa.Operand) isa.Operand {
		low := t.lowerOperand(o, idx)
		if low.Kind != isa.OpdMem {
			return low
		}
		r := t.tmp()
		a.LoadWord(r, low.Mem.Base, low.Mem.Disp, armScratchFor(isa.ARM, r))
		return isa.R(r)
	}
	// destReg returns the register to compute into plus a finisher that
	// stores back when the architectural register is stack-relocated.
	destReg := func(o isa.Operand) (isa.Reg, func()) {
		low := t.lowerOperand(o, idx)
		if low.Kind == isa.OpdReg {
			return low.Reg, func() {}
		}
		r := t.tmp()
		return r, func() { a.StoreWord(r, low.Mem.Base, low.Mem.Disp, armScratchFor(isa.ARM, r)) }
	}
	switch in.Op {
	case isa.OpNop, isa.OpHlt:
		a.Emit(isa.Inst{Op: in.Op})
	case isa.OpMov, isa.OpNot:
		src := loadSrc(in.Src)
		rd, fin := destReg(in.Dst)
		a.Emit(isa.Inst{Op: in.Op, Dst: isa.R(rd), Src: src})
		fin()
	case isa.OpMovT:
		// Read-modify-write on the destination.
		src := in.Src
		low := t.lowerOperand(in.Dst, idx)
		if low.Kind == isa.OpdReg {
			a.Emit(isa.Inst{Op: isa.OpMovT, Dst: low, Src: src})
			return
		}
		r := t.tmp()
		a.LoadWord(r, low.Mem.Base, low.Mem.Disp, armScratchFor(isa.ARM, r))
		a.Emit(isa.Inst{Op: isa.OpMovT, Dst: isa.R(r), Src: src})
		a.StoreWord(r, low.Mem.Base, low.Mem.Disp, armScratchFor(isa.ARM, r))
	case isa.OpAdd, isa.OpSub, isa.OpRsb, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpMul, isa.OpDiv:
		// SP-relative arithmetic passes through (frame pointer math).
		if in.Dst.IsReg(sp) && in.Src2.IsReg(sp) {
			a.Emit(*in)
			if in.Src.Kind == isa.OpdImm {
				if in.Op == isa.OpSub {
					t.delta -= in.Src.Imm
				} else if in.Op == isa.OpAdd {
					t.delta += in.Src.Imm
				}
			}
			return
		}
		src := loadSrc(in.Src)
		src2 := loadSrc(in.Src2)
		rd, fin := destReg(in.Dst)
		a.Emit(isa.Inst{Op: in.Op, Dst: isa.R(rd), Src: src, Src2: src2})
		fin()
	case isa.OpCmp, isa.OpTest:
		lhs := loadSrc(in.Dst)
		src := loadSrc(in.Src)
		if lhs.Kind != isa.OpdReg {
			r := t.tmp()
			a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(r), Src: lhs})
			lhs = isa.R(r)
		}
		a.Emit(isa.Inst{Op: in.Op, Dst: lhs, Src: src})
	case isa.OpLoad:
		src := t.lowerOperand(in.Src, idx) // memory operand remapped
		rd, fin := destReg(in.Dst)
		a.LoadWord(rd, src.Mem.Base, src.Mem.Disp, armScratchFor(isa.ARM, rd))
		fin()
	case isa.OpStore:
		val := loadSrc(in.Src)
		dst := t.lowerOperand(in.Dst, idx)
		vr := val.Reg
		if val.Kind != isa.OpdReg {
			vr = t.tmp()
			a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(vr), Src: val})
		}
		a.StoreWord(vr, dst.Mem.Base, dst.Mem.Disp, armScratchFor(isa.ARM, vr))
	case isa.OpBx: // bx lr, the return (rewriteControl took the rest)
		a.Emit(isa.Inst{Op: isa.OpBx, Dst: isa.R(isa.LR)})
	case isa.OpPushM:
		// Store each architectural register's (relocated) value.
		n := int32(0)
		for r := 0; r < 16; r++ {
			if in.RegMask&(1<<r) != 0 {
				n++
			}
		}
		a.AddImm(sp, sp, -4*n, isa.R12)
		t.delta -= 4 * n
		off := int32(0)
		for r := 0; r < 16; r++ {
			if in.RegMask&(1<<r) == 0 {
				continue
			}
			t.resetTmps()
			v := loadSrc(isa.R(isa.Reg(r)))
			vr := v.Reg
			a.StoreWord(vr, sp, off, armScratchFor(isa.ARM, vr))
			off += 4
		}
	case isa.OpPopM:
		off := int32(0)
		hasPC := in.RegMask&(1<<isa.PC) != 0
		for r := 0; r < 15; r++ { // PC handled by trap
			if in.RegMask&(1<<r) == 0 {
				continue
			}
			t.resetTmps()
			rr := t.tmp()
			a.LoadWord(rr, sp, off, armScratchFor(isa.ARM, rr))
			low := t.lowerOperand(isa.R(isa.Reg(r)), idx)
			if low.Kind == isa.OpdReg {
				a.Emit(isa.Inst{Op: isa.OpMov, Dst: low, Src: isa.R(rr)})
			} else {
				a.StoreWord(rr, low.Mem.Base, low.Mem.Disp, armScratchFor(isa.ARM, rr))
			}
			off += 4
		}
		a.AddImm(sp, sp, off, isa.R12)
		t.delta += off
		if hasPC {
			t.emitTrapHere(trapMeta{vec: vecPopPC, delta: t.delta, fnIndex: t.fn.Index})
		}
	default:
		t.emitKill()
	}
}
