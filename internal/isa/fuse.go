package isa

import (
	"math/bits"
	"slices"
)

// This file implements the superinstruction layer of the predecoded block
// cache: FuseBlock collapses a decoded instruction sequence into fused
// entries — specialized single-instruction forms plus common adjacent
// pairs (cmp+jcc, load+ALU, mov+mov, ALU+store) — that the interpreter
// dispatches with one switch per entry instead of one per instruction.
//
// A FusedInst is a flattened, self-contained operand bundle: the hot exec
// arms read only its fixed-size fields and never touch the 84-byte Inst it
// was built from. The A/B indices point back into the block's Inst slice
// for everything cold: hook invocations, error wrapping, and the timing
// model's batched commit, which replays accounting from the original
// instructions.

// FusedOp selects the interpreter's dedicated exec arm for a fused entry.
type FusedOp uint8

const (
	// FGeneric executes Insts[A] through the interpreter's full switch.
	// Every op without a specialized arm (terminators, byte ops, RMW
	// memory forms, div, pushm/popm, ...) funnels through it.
	FGeneric FusedOp = iota

	// Specialized single-instruction forms. Register fields are
	// pre-masked to 4 bits at fuse time.
	FMovRI  // R1 = Imm
	FMovRR  // R1 = R2
	FMovRM  // R1 = mem32[R2 + Imm]
	FMovMR  // mem32[R2 + Imm] = R1
	FLeaRM  // R1 = R2 + Imm
	FAluRI  // R1 = R1 <Op> Imm            (two-operand form)
	FAluRR  // R1 = R1 <Op> R2
	FAlu3RI // R1 = R2 <Op> Imm            (ARM three-operand form)
	FAlu3RR // R1 = R2 <Op> R3
	FIncDec // R1 = R1 ± 1 (Op selects)
	FCmpRI  // flags = R1 cmp Imm
	FCmpRR  // flags = R1 cmp R2
	FPushR  // push R1
	FPushI  // push Imm
	FPopR   // pop into R1

	// Fused pairs (N == 2).
	FMovMov   // R1 = (Sub&FSubImmA ? Imm : R2); R3 = (Sub&FSubImmB ? Imm2 : R4)
	FLoadAlu  // R1 = mem32[R2+Imm]; R3 = (Sub&FSubAlu3 ? R5 : R3) <Op> (Sub&FSubAluImm ? Imm2 : R4)
	FAluStore // R1 = (Sub&FSubAlu3 ? R5 : R1) <Op> (Sub&FSubAluImm ? Imm : R2); mem32[R3+Imm2] = R4
	FCmpJccRI // flags = R1 cmp Imm; if Cond jump Target else fall to Next
	FCmpJccRR // flags = R1 cmp R2; if Cond jump Target else fall to Next
)

// Sub-code bits. Their meaning is scoped to the fused op family noted in
// the FusedOp comments above.
const (
	FSubImmA uint8 = 1 << 0 // FMovMov: first mov's source is Imm, not R2
	FSubImmB uint8 = 1 << 1 // FMovMov: second mov's source is Imm2, not R4

	FSubAluImm uint8 = 1 << 0 // FLoadAlu/FAluStore: ALU source is immediate
	FSubAlu3   uint8 = 1 << 1 // FLoadAlu/FAluStore: ALU is three-operand (a = R5)

	// FSubMayWrite marks an FGeneric entry whose instruction can store to
	// memory, so the dispatch loop polls the code generation after it.
	// Specialized arms encode this statically in their opcode instead.
	FSubMayWrite uint8 = 1 << 0
)

// FusedInst is one dispatch entry of a fused block. Field roles depend on
// Code (see the FusedOp constants); Next is always the address of the
// instruction following the whole entry.
type FusedInst struct {
	Code FusedOp
	N    uint8 // architectural instructions this entry retires (1 or 2)
	Sub  uint8 // family-scoped sub-code bits
	A, B uint8 // indices of the source Insts within the block

	R1, R2, R3, R4, R5 uint8
	Cond               Cond
	Op                 Op

	Imm, Imm2 int32
	Target    uint32
	Next      uint32
}

// fusableALU reports whether in can execute through the shared register
// ALU arm: a two- or three-operand ALU op with a register destination and
// register/immediate sources. Div is excluded (x86 div writes the EAX/EDX
// pair), as are byte-width forms.
func fusableALU(in *Inst) bool {
	switch in.Op {
	case OpAdd, OpSub, OpRsb, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul:
	default:
		return false
	}
	if in.ByteOp || in.Dst.Kind != OpdReg {
		return false
	}
	if in.Src.Kind != OpdReg && in.Src.Kind != OpdImm {
		return false
	}
	return in.Src2.Kind == OpdNone || in.Src2.Kind == OpdReg
}

// regMov reports whether in is a register-destination mov with a
// register/immediate source (no memory on either side).
func regMov(in *Inst) bool {
	return in.Op == OpMov && !in.ByteOp && in.Dst.Kind == OpdReg &&
		(in.Src.Kind == OpdReg || in.Src.Kind == OpdImm)
}

// baseDispMem reports whether o is a [base + disp] memory operand, the only
// addressing shape the specialized load/store arms handle.
func baseDispMem(o Operand) bool {
	return o.Kind == OpdMem && o.Mem.HasBase && !o.Mem.HasIndex
}

// loadShape reports whether in is a word load of [base+disp] into a
// register (x86 mov r,[m] or ARM ldr).
func loadShape(in *Inst) bool {
	return (in.Op == OpMov || in.Op == OpLoad) && !in.ByteOp &&
		in.Dst.Kind == OpdReg && baseDispMem(in.Src)
}

// storeShape reports whether in is a word store of a register to
// [base+disp] (x86 mov [m],r or ARM str).
func storeShape(in *Inst) bool {
	return (in.Op == OpMov || in.Op == OpStore) && !in.ByteOp &&
		in.Src.Kind == OpdReg && baseDispMem(in.Dst)
}

// regCmp reports whether in is a register/immediate compare (no memory
// operands, word width).
func regCmp(in *Inst) bool {
	return in.Op == OpCmp && !in.ByteOp && in.Dst.Kind == OpdReg &&
		(in.Src.Kind == OpdReg || in.Src.Kind == OpdImm) &&
		in.Src2.Kind == OpdNone
}

// aluFields fills the ALU operand fields shared by the single and pair
// arms: dst (and two-operand a) in dstR, b in srcR/imm, three-operand a in
// src2R with FSubAlu3 set.
func aluFields(in *Inst) (dstR, srcR, src2R, sub uint8, imm int32) {
	dstR = uint8(in.Dst.Reg) & 0xF
	if in.Src.Kind == OpdImm {
		sub |= FSubAluImm
		imm = in.Src.Imm
	} else {
		srcR = uint8(in.Src.Reg) & 0xF
	}
	if in.Src2.Kind == OpdReg {
		sub |= FSubAlu3
		src2R = uint8(in.Src2.Reg) & 0xF
	}
	return
}

// mayWriteMem reports whether executing in through the generic arm can
// store to memory (and therefore requires a code-generation poll to keep
// the documented SMC latency).
func mayWriteMem(in *Inst) bool {
	if in.Dst.Kind == OpdMem {
		return true
	}
	switch in.Op {
	case OpPush, OpPushM, OpCall, OpCallI, OpSys:
		return true
	}
	return false
}

// fuseSingle classifies one instruction into its specialized fused form,
// or FGeneric when no dedicated arm applies, overwriting every field of
// *f.
func fuseSingle(in *Inst, idx int, f *FusedInst) {
	*f = FusedInst{Code: FGeneric, N: 1, A: uint8(idx), Next: in.Addr + uint32(in.Size)}
	if in.ByteOp {
		if mayWriteMem(in) {
			f.Sub = FSubMayWrite
		}
		return
	}
	switch {
	case regMov(in):
		f.R1 = uint8(in.Dst.Reg) & 0xF
		if in.Src.Kind == OpdImm {
			f.Code = FMovRI
			f.Imm = in.Src.Imm
		} else {
			f.Code = FMovRR
			f.R2 = uint8(in.Src.Reg) & 0xF
		}
	case loadShape(in):
		f.Code = FMovRM
		f.R1 = uint8(in.Dst.Reg) & 0xF
		f.R2 = uint8(in.Src.Mem.Base) & 0xF
		f.Imm = in.Src.Mem.Disp
	case storeShape(in):
		f.Code = FMovMR
		f.R1 = uint8(in.Src.Reg) & 0xF
		f.R2 = uint8(in.Dst.Mem.Base) & 0xF
		f.Imm = in.Dst.Mem.Disp
	case in.Op == OpLea && in.Dst.Kind == OpdReg && baseDispMem(in.Src):
		f.Code = FLeaRM
		f.R1 = uint8(in.Dst.Reg) & 0xF
		f.R2 = uint8(in.Src.Mem.Base) & 0xF
		f.Imm = in.Src.Mem.Disp
	case fusableALU(in):
		f.Op = in.Op
		dstR, srcR, src2R, sub, imm := aluFields(in)
		switch {
		case sub&FSubAlu3 != 0 && sub&FSubAluImm != 0:
			f.Code = FAlu3RI
			f.R1, f.R2, f.Imm = dstR, src2R, imm
		case sub&FSubAlu3 != 0:
			f.Code = FAlu3RR
			f.R1, f.R2, f.R3 = dstR, src2R, srcR
		case sub&FSubAluImm != 0:
			f.Code = FAluRI
			f.R1, f.Imm = dstR, imm
		default:
			f.Code = FAluRR
			f.R1, f.R2 = dstR, srcR
		}
	case (in.Op == OpInc || in.Op == OpDec) && in.Dst.Kind == OpdReg:
		f.Code = FIncDec
		f.Op = in.Op
		f.R1 = uint8(in.Dst.Reg) & 0xF
	case regCmp(in):
		f.R1 = uint8(in.Dst.Reg) & 0xF
		if in.Src.Kind == OpdImm {
			f.Code = FCmpRI
			f.Imm = in.Src.Imm
		} else {
			f.Code = FCmpRR
			f.R2 = uint8(in.Src.Reg) & 0xF
		}
	case in.Op == OpPush && (in.Src.Kind == OpdReg || in.Src.Kind == OpdImm):
		if in.Src.Kind == OpdImm {
			f.Code = FPushI
			f.Imm = in.Src.Imm
		} else {
			f.Code = FPushR
			f.R1 = uint8(in.Src.Reg) & 0xF
		}
	case in.Op == OpPop && in.Dst.Kind == OpdReg:
		f.Code = FPopR
		f.R1 = uint8(in.Dst.Reg) & 0xF
	default:
		if mayWriteMem(in) {
			f.Sub = FSubMayWrite
		}
	}
}

// fusePair tries to fuse insts[i] and insts[i+1] into one entry,
// overwriting every field of *f when it does; when it does not, *f is
// left for fuseSingle to overwrite. Data pairs are only formed when the
// second instruction is not the block's final one: the dispatch loop
// commits batched timing before the last architectural instruction
// executes, so the last entry must be a single or a cmp+jcc (whose
// compare is register-only and observation-neutral after execution).
func fusePair(insts []Inst, i int, f *FusedInst) bool {
	a, b := &insts[i], &insts[i+1]
	last := i+1 == len(insts)-1
	*f = FusedInst{N: 2, A: uint8(i), B: uint8(i + 1), Next: b.Addr + uint32(b.Size)}

	if regCmp(a) && b.Op == OpJcc {
		f.R1 = uint8(a.Dst.Reg) & 0xF
		if a.Src.Kind == OpdImm {
			f.Code = FCmpJccRI
			f.Imm = a.Src.Imm
		} else {
			f.Code = FCmpJccRR
			f.R2 = uint8(a.Src.Reg) & 0xF
		}
		f.Cond = b.Cond
		f.Target = b.Target
		return true
	}
	if last {
		return false
	}
	switch {
	case regMov(a) && regMov(b):
		f.Code = FMovMov
		f.R1 = uint8(a.Dst.Reg) & 0xF
		if a.Src.Kind == OpdImm {
			f.Sub |= FSubImmA
			f.Imm = a.Src.Imm
		} else {
			f.R2 = uint8(a.Src.Reg) & 0xF
		}
		f.R3 = uint8(b.Dst.Reg) & 0xF
		if b.Src.Kind == OpdImm {
			f.Sub |= FSubImmB
			f.Imm2 = b.Src.Imm
		} else {
			f.R4 = uint8(b.Src.Reg) & 0xF
		}
		return true
	case loadShape(a) && fusableALU(b):
		f.Code = FLoadAlu
		f.R1 = uint8(a.Dst.Reg) & 0xF
		f.R2 = uint8(a.Src.Mem.Base) & 0xF
		f.Imm = a.Src.Mem.Disp
		f.Op = b.Op
		dstR, srcR, src2R, sub, imm := aluFields(b)
		f.R3, f.R4, f.R5 = dstR, srcR, src2R
		f.Sub = sub
		f.Imm2 = imm
		return true
	case fusableALU(a) && storeShape(b):
		f.Code = FAluStore
		f.Op = a.Op
		dstR, srcR, src2R, sub, imm := aluFields(a)
		f.R1, f.R2, f.R5 = dstR, srcR, src2R
		f.Sub = sub
		f.Imm = imm
		f.R3 = uint8(b.Dst.Mem.Base) & 0xF
		f.Imm2 = b.Dst.Mem.Disp
		f.R4 = uint8(b.Src.Reg) & 0xF
		return true
	}
	return false
}

// FuseBlock lowers a decoded block into fused dispatch entries, appending
// to dst and returning it together with the number of instruction pairs
// that were fused. Each entry is filled in place in the slot it occupies,
// overwriting every field, so dst may be recycled storage.
func FuseBlock(insts []Inst, dst []FusedInst) ([]FusedInst, int) {
	pairs := 0
	for i := 0; i < len(insts); {
		n := len(dst)
		dst = slices.Grow(dst, 1)[:n+1]
		f := &dst[n]
		if i+1 < len(insts) && fusePair(insts, i, f) {
			pairs++
			i += 2
			continue
		}
		fuseSingle(&insts[i], i, f)
		i++
	}
	return dst, pairs
}

// StackAccess reports whether o implicitly accesses memory through the
// stack pointer. It defines the effective-address logging protocol shared
// by the interpreter's batched dispatch loop and the timing model's
// batched commit: for each executed instruction, the machine logs, in
// order, the source effective address if Src is a memory operand, the
// destination effective address if Dst is one, and the pre-execution
// stack pointer if StackAccess is true.
func (o Op) StackAccess() bool {
	switch o {
	case OpPush, OpPop, OpPushM, OpPopM, OpRet, OpLeave:
		return true
	}
	return false
}

// ChargeKind classifies one entry of a block's data-cache charge program.
type ChargeKind uint8

const (
	ChargeLoad      ChargeKind = iota // load from eas[Slot]
	ChargeStore                       // store to eas[Slot]
	ChargeLoadStore                   // read-modify-write of eas[Slot]: load, then store
	ChargePush                        // store to eas[Slot]-4 (eas[Slot] is push's pre-exec SP)
	ChargeMulti                       // pushm/popm of Regs registers at eas[Slot]
)

// DataCharge is one data-cache charge of a block: which effective-address
// log slot it reads and how the timing model charges the access.
type DataCharge struct {
	Slot uint8
	Kind ChargeKind
	Regs uint8 // ChargeMulti only
}

// BlockTiming is the model-independent timing summary of one decoded
// block: everything a cycle model needs to charge the whole block at
// once except the dynamic outcomes (cache hits, branch direction). The
// counts follow the timing model's per-instruction classification; the
// charge program lists the block's data-cache accesses in the order the
// per-instruction path charges them, with slots in the effective-address
// log layout of Op.StackAccess. It knows nothing of any core.
type BlockTiming struct {
	Instrs, Loads, Stores, Branches, Calls, Returns, Muls, Divs uint32

	MultiRegs uint32 // registers moved by all pushm/popm

	Charges []DataCharge // the data-cache charge program
}

// SummarizeBlock builds the timing summary of a decoded block, appending
// its charge program to dst (which may be a recycled slice).
func SummarizeBlock(insts []Inst, dst []DataCharge) BlockTiming {
	bt := BlockTiming{Instrs: uint32(len(insts))}
	charge := func(slot int, k ChargeKind, regs int) {
		dst = append(dst, DataCharge{Slot: uint8(slot), Kind: k, Regs: uint8(regs)})
		switch k {
		case ChargeLoad:
			bt.Loads++
		case ChargeStore, ChargePush:
			bt.Stores++
		case ChargeLoadStore:
			bt.Loads++
			bt.Stores++
		}
	}
	slot := 0
	for i := range insts {
		in := &insts[i]
		srcSlot, dstSlot, spSlot := -1, -1, -1
		if in.Src.Kind == OpdMem {
			srcSlot = slot
			slot++
		}
		if in.Dst.Kind == OpdMem {
			dstSlot = slot
			slot++
		}
		if in.Op.StackAccess() {
			spSlot = slot
			slot++
		}
		switch in.Op {
		case OpMul:
			bt.Muls++
		case OpDiv:
			bt.Divs++
		case OpJcc:
			bt.Branches++
		case OpCall, OpCallI:
			bt.Calls++
		case OpRet:
			bt.Returns++
		case OpBx:
			if in.Dst.IsReg(LR) {
				bt.Returns++
			}
		}
		switch in.Op {
		case OpMov, OpLoad, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpCmp, OpTest,
			OpMul, OpDiv, OpShl, OpShr, OpNeg, OpNot, OpInc, OpDec:
			if srcSlot >= 0 {
				charge(srcSlot, ChargeLoad, 0)
			}
			switch {
			case dstSlot < 0:
			case in.Op == OpMov || in.Op == OpLoad:
				charge(dstSlot, ChargeStore, 0)
			default:
				charge(dstSlot, ChargeLoadStore, 0)
			}
		case OpStore:
			if dstSlot >= 0 {
				charge(dstSlot, ChargeStore, 0)
			}
		case OpPush:
			if srcSlot >= 0 {
				charge(srcSlot, ChargeLoad, 0)
			}
			charge(spSlot, ChargePush, 0)
		case OpPop, OpRet, OpLeave:
			charge(spSlot, ChargeLoad, 0)
		case OpPushM, OpPopM:
			n := bits.OnesCount16(in.RegMask)
			bt.MultiRegs += uint32(n)
			charge(spSlot, ChargeMulti, n)
		}
	}
	bt.Charges = dst
	return bt
}
