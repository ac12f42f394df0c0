package isa

import (
	"encoding/binary"
	"fmt"
)

// The ARM-like ISA uses fixed 32-bit words with the following layout:
//
//	[31:28] condition nibble (branches only; all other ops require AL)
//	[27:22] opcode (6 bits)
//	[21:18] rd
//	[17:14] rn
//	[13]    immediate flag for operand2
//	[12:0]  operand2: signed 13-bit immediate, or rm in [3:0] with [12:4]=0
//
// Branch offsets occupy [21:0] as a signed word count. MOVW/MOVT carry a
// 16-bit immediate in [15:0]. PUSH/POP carry a register mask in [15:0].
// SVC carries a 16-bit vector. The decoder is strict: undefined opcodes,
// non-AL conditions on non-branches, and nonzero must-be-zero fields all
// reject, which is what gives ARM its far smaller unintentional-gadget
// surface.
const (
	aopMov  = 0x01
	aopAdd  = 0x02
	aopSub  = 0x03
	aopRsb  = 0x04
	aopAnd  = 0x05
	aopOrr  = 0x06
	aopEor  = 0x07
	aopLsl  = 0x08
	aopLsr  = 0x09
	aopMul  = 0x0A
	aopDiv  = 0x0B
	aopCmp  = 0x0C
	aopTst  = 0x0D
	aopMvn  = 0x0E
	aopLdr  = 0x10
	aopStr  = 0x11
	aopB    = 0x12
	aopBl   = 0x13
	aopBx   = 0x14
	aopBlx  = 0x15
	aopPush = 0x16
	aopPop  = 0x17
	aopSvc  = 0x18
	aopNop  = 0x19
	aopHlt  = 0x1A
	aopMovw = 0x1C
	aopMovt = 0x1D
)

// armCondNibble maps Cond to the encoding nibble (ARM AArch32 values),
// indexed by Cond; every Cond has one.
var armCondNibble = [...]uint32{
	CondEQ: 0x0, CondNE: 0x1, CondAE: 0x2, CondB: 0x3,
	CondGE: 0xA, CondLT: 0xB, CondGT: 0xC, CondLE: 0xD,
	CondAlways: 0xE,
}

// armNibbleCond is the decoder's inverse of armCondNibble, indexed by
// condition nibble; noCond marks the nibbles this encoding leaves
// undefined.
var armNibbleCond = func() (t [16]Cond) {
	for i := range t {
		t[i] = noCond
	}
	for c, n := range armCondNibble {
		t[n] = Cond(c)
	}
	return t
}()

// armImmMin and armImmMax bound the signed 13-bit operand2 immediate.
const (
	armImmMin = -(1 << 12)
	armImmMax = (1 << 12) - 1
)

// FitsARMImm reports whether v is encodable as an ARM operand2 immediate.
func FitsARMImm(v int32) bool { return v >= armImmMin && v <= armImmMax }

func armWord(cond uint32, op uint32, rd, rn Reg, low14 uint32) uint32 {
	return cond<<28 | op<<22 | uint32(rd&0xF)<<18 | uint32(rn&0xF)<<14 | low14&0x3FFF
}

func armOp2(o Operand) (uint32, error) {
	switch o.Kind {
	case OpdReg:
		if o.Reg > 15 {
			return 0, fmt.Errorf("%w: arm register %d", ErrInvalid, o.Reg)
		}
		return uint32(o.Reg), nil
	case OpdImm:
		if !FitsARMImm(o.Imm) {
			return 0, fmt.Errorf("%w: arm immediate %d out of range", ErrInvalid, o.Imm)
		}
		return 1<<13 | uint32(o.Imm)&0x1FFF, nil
	default:
		return 0, fmt.Errorf("%w: arm operand2 kind %d", ErrInvalid, o.Kind)
	}
}

// armReg returns operand o's register, which must be an ARM register;
// what names the operand in the error.
func armReg(o Operand, what string) (Reg, error) {
	if o.Kind != OpdReg || o.Reg > 15 {
		return 0, fmt.Errorf("%w: %s must be an arm register", ErrInvalid, what)
	}
	return o.Reg, nil
}

// encodeARM appends in as a single 32-bit word to dst. Instructions whose
// addressing needs exceed the encoding (e.g. large memory displacements)
// must be legalized by the caller into MOVW/MOVT + register-offset forms.
func encodeARM(in *Inst, dst []byte) ([]byte, error) {
	cond := armCondNibble[CondAlways]
	var w uint32
	switch in.Op {
	case OpNop:
		w = armWord(cond, aopNop, 0, 0, 0)
	case OpHlt:
		w = armWord(cond, aopHlt, 0, 0, 0)
	case OpSys:
		w = cond<<28 | aopSvc<<22 | uint32(uint16(in.Imm))
	case OpMov, OpNot:
		rd, err := armReg(in.Dst, "mov dst")
		if err != nil {
			return nil, err
		}
		if in.Op == OpMov && in.Src.Kind == OpdImm && !FitsARMImm(in.Src.Imm) {
			// Wide immediate: movw zero-extended imm16.
			if in.Src.Imm < 0 || in.Src.Imm > 0xFFFF {
				return nil, fmt.Errorf("%w: mov immediate %#x needs movw/movt sequence", ErrInvalid, uint32(in.Src.Imm))
			}
			w = cond<<28 | aopMovw<<22 | uint32(rd)<<18 | uint32(uint16(in.Src.Imm))
			break
		}
		op2, err := armOp2(in.Src)
		if err != nil {
			return nil, err
		}
		op := uint32(aopMov)
		if in.Op == OpNot {
			op = aopMvn
		}
		w = armWord(cond, op, rd, 0, op2)
	case OpMovT:
		rd, err := armReg(in.Dst, "movt dst")
		if err != nil {
			return nil, err
		}
		if in.Src.Kind != OpdImm {
			return nil, fmt.Errorf("%w: movt needs immediate", ErrInvalid)
		}
		w = cond<<28 | aopMovt<<22 | uint32(rd)<<18 | uint32(uint16(in.Src.Imm))
	case OpAdd, OpSub, OpRsb, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv:
		rd, err := armReg(in.Dst, "alu dst")
		if err != nil {
			return nil, err
		}
		src2 := in.Src2
		if src2.Kind == OpdNone {
			// Two-operand form: rd = rd op src.
			src2 = in.Dst
		}
		rn, err := armReg(src2, "alu src2")
		if err != nil {
			return nil, err
		}
		op2, err := armOp2(in.Src)
		if err != nil {
			return nil, err
		}
		var op uint32
		switch in.Op {
		case OpAdd:
			op = aopAdd
		case OpSub:
			op = aopSub
		case OpRsb:
			op = aopRsb
		case OpAnd:
			op = aopAnd
		case OpOr:
			op = aopOrr
		case OpXor:
			op = aopEor
		case OpShl:
			op = aopLsl
		case OpShr:
			op = aopLsr
		case OpMul:
			op = aopMul
			if in.Src.Kind != OpdReg {
				return nil, fmt.Errorf("%w: mul operand must be register", ErrInvalid)
			}
		case OpDiv:
			op = aopDiv
			if in.Src.Kind != OpdReg {
				return nil, fmt.Errorf("%w: div operand must be register", ErrInvalid)
			}
		}
		w = armWord(cond, op, rd, rn, op2)
	case OpCmp, OpTest:
		rn, err := armReg(in.Dst, "cmp lhs")
		if err != nil {
			return nil, err
		}
		op2, err := armOp2(in.Src)
		if err != nil {
			return nil, err
		}
		op := uint32(aopCmp)
		if in.Op == OpTest {
			op = aopTst
		}
		w = armWord(cond, op, 0, rn, op2)
	case OpLoad, OpStore:
		var rd Reg
		var m MemRef
		var err error
		if in.Op == OpLoad {
			if rd, err = armReg(in.Dst, "ldr dst"); err != nil {
				return nil, err
			}
			if in.Src.Kind != OpdMem {
				return nil, fmt.Errorf("%w: ldr src must be memory", ErrInvalid)
			}
			m = in.Src.Mem
		} else {
			if rd, err = armReg(in.Src, "str src"); err != nil {
				return nil, err
			}
			if in.Dst.Kind != OpdMem {
				return nil, fmt.Errorf("%w: str dst must be memory", ErrInvalid)
			}
			m = in.Dst.Mem
		}
		if !m.HasBase || m.Base > 15 {
			return nil, fmt.Errorf("%w: arm memory operand needs base register", ErrInvalid)
		}
		var op2 uint32
		switch {
		case m.HasIndex && m.Disp == 0 && (m.Scale <= 1):
			if m.Index > 15 {
				return nil, fmt.Errorf("%w: arm index register", ErrInvalid)
			}
			op2 = uint32(m.Index)
		case !m.HasIndex:
			if !FitsARMImm(m.Disp) {
				return nil, fmt.Errorf("%w: arm load/store displacement %d", ErrInvalid, m.Disp)
			}
			op2 = 1<<13 | uint32(m.Disp)&0x1FFF
		default:
			return nil, fmt.Errorf("%w: arm scaled/displaced index unsupported", ErrInvalid)
		}
		op := uint32(aopLdr)
		if in.Op == OpStore {
			op = aopStr
		}
		w = armWord(cond, op, rd, m.Base, op2)
	case OpJmp, OpJcc, OpCall:
		c := in.Cond
		if in.Op != OpJcc {
			c = CondAlways
		}
		if int(c) >= len(armCondNibble) {
			return nil, fmt.Errorf("%w: arm condition %s", ErrInvalid, c)
		}
		nib := armCondNibble[c]
		rel := (int64(in.Target) - int64(in.Addr) - 4) / 4
		if rel < -(1<<21) || rel >= 1<<21 {
			return nil, fmt.Errorf("%w: arm branch out of range", ErrInvalid)
		}
		op := uint32(aopB)
		if in.Op == OpCall {
			op = aopBl
		}
		w = nib<<28 | op<<22 | uint32(rel)&0x3FFFFF
	case OpBx, OpCallI, OpJmpI:
		rm, err := armReg(in.Dst, "bx target")
		if err != nil {
			return nil, err
		}
		op := uint32(aopBx)
		if in.Op == OpCallI {
			op = aopBlx
		}
		w = armWord(cond, op, 0, 0, uint32(rm))
	case OpPushM, OpPopM:
		op := uint32(aopPush)
		if in.Op == OpPopM {
			op = aopPop
		}
		w = cond<<28 | op<<22 | uint32(in.RegMask)
	case OpPush:
		// push rX == stmdb sp!, {rX}
		r, err := armReg(in.Src, "push src")
		if err != nil {
			return nil, err
		}
		w = cond<<28 | aopPush<<22 | 1<<uint32(r)
	case OpPop:
		r, err := armReg(in.Dst, "pop dst")
		if err != nil {
			return nil, err
		}
		w = cond<<28 | aopPop<<22 | 1<<uint32(r)
	default:
		return nil, fmt.Errorf("%w: op %s not encodable on arm", ErrInvalid, in.Op)
	}
	return binary.LittleEndian.AppendUint32(dst, w), nil
}

// decodeARM decodes the 4-byte word at the start of b, located at addr,
// into *in (see Decode). addr must be word-aligned.
func decodeARM(b []byte, addr uint32, in *Inst) error {
	*in = Inst{ISA: ARM, Addr: addr, Size: 4, Cond: CondAlways}
	if addr%4 != 0 {
		return fmt.Errorf("%w: unaligned arm address %#x", ErrInvalid, addr)
	}
	if len(b) < 4 {
		return ErrTruncated
	}
	w := binary.LittleEndian.Uint32(b)
	cond := armNibbleCond[w>>28]
	if cond == noCond {
		return ErrInvalid
	}
	op := w >> 22 & 0x3F
	rd := Reg(w >> 18 & 0xF)
	rn := Reg(w >> 14 & 0xF)
	immFlag := w>>13&1 == 1
	op2 := func() Operand {
		if immFlag {
			v := int32(w & 0x1FFF)
			if v&(1<<12) != 0 {
				v |= ^int32(0x1FFF) // sign-extend 13 bits
			}
			return I(v)
		}
		return R(Reg(w & 0xF))
	}
	mbzOp2Reg := func() bool { return immFlag || w&0x1FF0 == 0 }
	// Conditions are only architecturally meaningful on branches.
	if cond != CondAlways && op != aopB {
		return ErrInvalid
	}
	switch op {
	case aopNop, aopHlt:
		if w&0x003FFFFF != 0 {
			return ErrInvalid
		}
		if op == aopNop {
			in.Op = OpNop
		} else {
			in.Op = OpHlt
		}
		return nil
	case aopSvc:
		if w>>16&0x3F != 0 {
			return ErrInvalid
		}
		in.Op = OpSys
		in.Imm = int32(w & 0xFFFF)
		return nil
	case aopMov, aopMvn:
		if rn != 0 || !mbzOp2Reg() {
			return ErrInvalid
		}
		if op == aopMov {
			in.Op = OpMov
		} else {
			in.Op = OpNot
		}
		in.Dst = R(rd)
		in.Src = op2()
		return nil
	case aopMovw, aopMovt:
		if w>>16&0x3 != 0 {
			return ErrInvalid
		}
		if op == aopMovw {
			in.Op = OpMov
		} else {
			in.Op = OpMovT
		}
		in.Dst = R(rd)
		in.Src = I(int32(w & 0xFFFF))
		return nil
	case aopAdd, aopSub, aopRsb, aopAnd, aopOrr, aopEor, aopLsl, aopLsr, aopMul, aopDiv:
		if !mbzOp2Reg() {
			return ErrInvalid
		}
		if (op == aopMul || op == aopDiv) && immFlag {
			return ErrInvalid
		}
		in.Op = armALUOp[op]
		in.Dst = R(rd)
		in.Src = op2()
		in.Src2 = R(rn)
		return nil
	case aopCmp, aopTst:
		if rd != 0 || !mbzOp2Reg() {
			return ErrInvalid
		}
		if op == aopCmp {
			in.Op = OpCmp
		} else {
			in.Op = OpTest
		}
		in.Dst = R(rn)
		in.Src = op2()
		return nil
	case aopLdr, aopStr:
		mem, reg := &in.Src, &in.Dst
		in.Op = OpLoad
		if op == aopStr {
			mem, reg = &in.Dst, &in.Src
			in.Op = OpStore
		}
		*mem = Operand{Kind: OpdMem, Mem: MemRef{HasBase: true, Base: rn}}
		m := &mem.Mem
		if immFlag {
			v := int32(w & 0x1FFF)
			if v&(1<<12) != 0 {
				v |= ^int32(0x1FFF)
			}
			m.Disp = v
		} else {
			if w&0x1FF0 != 0 {
				return ErrInvalid
			}
			m.HasIndex = true
			m.Index = Reg(w & 0xF)
			m.Scale = 1
		}
		*reg = R(rd)
		return nil
	case aopB, aopBl:
		rel := int32(w & 0x3FFFFF)
		if rel&(1<<21) != 0 {
			rel |= ^int32(0x3FFFFF)
		}
		in.Target = addr + 4 + uint32(rel*4)
		if op == aopBl {
			in.Op = OpCall
		} else if cond == CondAlways {
			in.Op = OpJmp
		} else {
			in.Op = OpJcc
			in.Cond = cond
		}
		return nil
	case aopBx, aopBlx:
		if rd != 0 || rn != 0 || w&0x3FF0 != 0 {
			return ErrInvalid
		}
		if op == aopBx {
			in.Op = OpBx
		} else {
			in.Op = OpCallI
		}
		in.Dst = R(Reg(w & 0xF))
		return nil
	case aopPush, aopPop:
		if w>>16&0x3F != 0 {
			return ErrInvalid
		}
		mask := uint16(w & 0xFFFF)
		if mask == 0 {
			return ErrInvalid
		}
		if op == aopPush {
			in.Op = OpPushM
		} else {
			in.Op = OpPopM
		}
		in.RegMask = mask
		return nil
	}
	return ErrInvalid
}

// armALUOp maps the ALU opcodes to their operations.
var armALUOp = [64]Op{
	aopAdd: OpAdd, aopSub: OpSub, aopRsb: OpRsb, aopAnd: OpAnd, aopOrr: OpOr,
	aopEor: OpXor, aopLsl: OpShl, aopLsr: OpShr, aopMul: OpMul, aopDiv: OpDiv,
}

// MaterializeARMConst returns the movw/movt sequence that loads the 32-bit
// constant v into rd. A single movw suffices when the high half is zero.
func MaterializeARMConst(rd Reg, v uint32) []Inst {
	movw := Inst{Op: OpMov, ISA: ARM, Cond: CondAlways, Dst: R(rd), Src: I(int32(v & 0xFFFF))}
	out := []Inst{movw}
	if v>>16 != 0 {
		out = append(out, Inst{Op: OpMovT, ISA: ARM, Cond: CondAlways, Dst: R(rd), Src: I(int32(v >> 16))})
	}
	return out
}

// Decode decodes one ISA-k instruction from b, which holds the bytes at
// address addr, into *in. It overwrites every field of *in, so in may be
// recycled storage holding anything; after an error *in is unspecified.
// It returns ErrInvalid for undefined encodings (wrapped, for an
// unaligned ARM address) and ErrTruncated when b ends mid-instruction.
func Decode(k Kind, b []byte, addr uint32, in *Inst) error {
	if k == X86 {
		return decodeX86(b, addr, in)
	}
	return decodeARM(b, addr, in)
}

// Encode appends the ISA-k encoding of in to dst and returns the extended
// slice, as append does: it allocates only when dst lacks the room, so an
// assembler encoding into its own buffer allocates nothing. Direct control
// transfers are encoded relative to in.Addr, the address the instruction
// will be placed at. On error it returns dst itself, whose spare capacity
// may have been written.
func Encode(k Kind, in *Inst, dst []byte) ([]byte, error) {
	var out []byte
	var err error
	if k == X86 {
		out, err = encodeX86(in, dst)
	} else {
		out, err = encodeARM(in, dst)
	}
	if err != nil {
		return dst, err
	}
	return out, nil
}
