package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("isa: truncated instruction")
	ErrInvalid   = errors.New("isa: invalid encoding")
)

// x86 opcode assignments (a faithful subset of IA-32's one-byte map; the
// properties that matter to HIPStR — byte density, 0xC3 ret, ModRM memory
// operands — are preserved).
const (
	xopAddMR  = 0x01
	xopAddRM  = 0x03
	xopOrMR   = 0x09
	xopOrRM   = 0x0B
	xopAndMR  = 0x21
	xopAndRM  = 0x23
	xopSubMR  = 0x29
	xopSubRM  = 0x2B
	xopXorMR  = 0x31
	xopXorRM  = 0x33
	xopCmpMR  = 0x39
	xopCmpRM  = 0x3B
	xopInc    = 0x40 // +r
	xopDec    = 0x48 // +r
	xopPush   = 0x50 // +r
	xopPop    = 0x58 // +r
	xopPushI  = 0x68
	xopJccS   = 0x70 // +cc, rel8
	xopGrpI32 = 0x81 // /ext, imm32
	xopGrpI8  = 0x83 // /ext, imm8
	xopTestMR = 0x85
	xopMovMR  = 0x89
	xopMovRM  = 0x8B
	xopLea    = 0x8D
	xopPopM   = 0x8F // /0
	xopNop    = 0x90
	xopMovRI  = 0xB8 // +r, imm32
	xopShGrp  = 0xC1 // /4 shl imm8, /5 shr imm8
	xopRet    = 0xC3
	xopMovMI  = 0xC7 // /0, imm32
	xopLeave  = 0xC9
	xopInt    = 0xCD
	xopShCL   = 0xD3 // /4 shl cl, /5 shr cl
	xopCall   = 0xE8
	xopJmp    = 0xE9
	xopJmpS   = 0xEB
	xopF7     = 0xF7 // /2 not, /3 neg, /4 mul, /6 div
	xopHlt    = 0xF4
	xopFF     = 0xFF // /2 call r/m, /4 jmp r/m, /6 push r/m
	xopTwo    = 0x0F // two-byte escape: 0x80+cc Jcc rel32, 0xAF imul
)

// noEnc marks an entry an encoder table leaves undefined: no x86 opcode,
// extension or condition code of this encoding is 0xFF.
const noEnc = 0xFF

// condCC maps Cond to the x86 condition-code nibble used by 0x70+cc and
// 0x0F 0x80+cc; x86 has no encoding for CondAlways.
var condCC = [...]byte{
	CondB: 0x2, CondAE: 0x3, CondEQ: 0x4, CondNE: 0x5,
	CondLT: 0xC, CondGE: 0xD, CondLE: 0xE, CondGT: 0xF,
	CondAlways: noEnc,
}

// ccCond is the decoder's inverse of condCC, indexed by condition-code
// nibble; noCond marks the nibbles this encoding leaves undefined.
var ccCond = func() (t [16]Cond) {
	for i := range t {
		t[i] = noCond
	}
	for c, cc := range condCC {
		if cc != noEnc {
			t[cc] = Cond(c)
		}
	}
	return t
}()

// appendModRM appends the ModRM (and, when needed, SIB and displacement)
// bytes for register field reg and r/m operand rm to dst.
//
// Like every append helper of the encoders, on error it returns an
// unspecified slice; Encode hands its caller back the original buffer.
func appendModRM(dst []byte, reg byte, rm Operand) ([]byte, error) {
	switch rm.Kind {
	case OpdReg:
		if rm.Reg > 7 {
			return dst, fmt.Errorf("%w: x86 register %d", ErrInvalid, rm.Reg)
		}
		return append(dst, 0xC0|reg<<3|byte(rm.Reg)), nil
	case OpdMem:
		m := rm.Mem
		// Absolute (no base, no index): mod=00 rm=101 disp32.
		if !m.HasBase && !m.HasIndex {
			return binary.LittleEndian.AppendUint32(append(dst, reg<<3|0x05), uint32(m.Disp)), nil
		}
		needSIB := m.HasIndex || (m.HasBase && m.Base == ESP)
		// dispLen is the displacement width the mod field selects: 0, 1
		// (disp8) or 4 (disp32).
		var mod byte
		dispLen := 0
		// mod=00 with base EBP means disp32-only in this encoding, so a
		// plain [ebp] must be expressed as [ebp+0] with a disp8.
		zeroDispOK := !(m.HasBase && m.Base == EBP)
		switch {
		case m.Disp == 0 && zeroDispOK:
			mod = 0x00
		case m.Disp >= -128 && m.Disp <= 127:
			mod = 0x40
			dispLen = 1
		default:
			mod = 0x80
			dispLen = 4
		}
		if !needSIB {
			if m.Base > 7 {
				return dst, fmt.Errorf("%w: x86 base register %d", ErrInvalid, m.Base)
			}
			return appendDisp(append(dst, mod|reg<<3|byte(m.Base)), m.Disp, dispLen), nil
		}
		// SIB form.
		var scale byte
		switch m.Scale {
		case 0, 1:
			scale = 0
		case 2:
			scale = 1
		case 4:
			scale = 2
		case 8:
			scale = 3
		default:
			return dst, fmt.Errorf("%w: scale %d", ErrInvalid, m.Scale)
		}
		index := byte(4) // none
		if m.HasIndex {
			if m.Index == ESP || m.Index > 7 {
				return dst, fmt.Errorf("%w: x86 index register %d", ErrInvalid, m.Index)
			}
			index = byte(m.Index)
		}
		base := byte(5)
		disp := m.Disp
		if m.HasBase {
			if m.Base > 7 {
				return dst, fmt.Errorf("%w: x86 base register %d", ErrInvalid, m.Base)
			}
			base = byte(m.Base)
		} else {
			// No base with SIB requires mod=00 and a disp32.
			mod = 0x00
			dispLen = 4
		}
		if m.HasBase && m.Base == EBP && mod == 0x00 {
			mod = 0x40
			dispLen = 1
			disp = 0
		}
		return appendDisp(append(dst, mod|reg<<3|0x04, scale<<6|index<<3|base), disp, dispLen), nil
	default:
		return dst, fmt.Errorf("%w: bad r/m operand kind %d", ErrInvalid, rm.Kind)
	}
}

// appendDisp appends a displacement of n bytes (0, 1 or 4).
func appendDisp(dst []byte, disp int32, n int) []byte {
	switch n {
	case 1:
		return append(dst, byte(int8(disp)))
	case 4:
		return binary.LittleEndian.AppendUint32(dst, uint32(disp))
	}
	return dst
}

// appendOpModRM appends opcode op followed by the ModRM bytes for reg
// and rm.
func appendOpModRM(dst []byte, op, reg byte, rm Operand) ([]byte, error) {
	return appendModRM(append(dst, op), reg, rm)
}

// appendImm32 appends v as a little-endian 32-bit immediate.
func appendImm32(dst []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

// withImm appends an 8-bit or (wide) 32-bit immediate to the result of an
// opcode+ModRM append, passing its error through.
func withImm(out []byte, err error, imm int32, wide bool) ([]byte, error) {
	if err != nil {
		return out, err
	}
	if wide {
		return appendImm32(out, imm), nil
	}
	return append(out, byte(imm)), nil
}

// Encoder-side opcode tables, indexed by Op; noEnc marks an op the form
// does not encode. They are arrays, built once from the literal pairs, so
// an encode reads a table slot instead of probing a map.
var (
	// x86GrpExt is the ModRM reg-field extension of the 0x80/0x81/0x83
	// immediate ALU group.
	x86GrpExt = opTable(map[Op]byte{OpAdd: 0, OpOr: 1, OpAnd: 4, OpSub: 5, OpXor: 6, OpCmp: 7})
	x86ALUMR  = opTable(map[Op]byte{
		OpAdd: xopAddMR, OpOr: xopOrMR, OpAnd: xopAndMR,
		OpSub: xopSubMR, OpXor: xopXorMR, OpCmp: xopCmpMR,
	})
	x86ALURM = opTable(map[Op]byte{
		OpAdd: xopAddRM, OpOr: xopOrRM, OpAnd: xopAndRM,
		OpSub: xopSubRM, OpXor: xopXorRM, OpCmp: xopCmpRM,
	})
	// Byte-form ALU opcode pairs (op r/m8, r8) and (op r8, r/m8), and the
	// "op al, imm8" forms.
	x86ByteMR = opTable(map[Op]byte{
		OpAdd: 0x00, OpOr: 0x08, OpAnd: 0x20, OpSub: 0x28, OpXor: 0x30,
		OpCmp: 0x38, OpMov: 0x88,
	})
	x86ByteRM = opTable(map[Op]byte{
		OpAdd: 0x02, OpOr: 0x0A, OpAnd: 0x22, OpSub: 0x2A, OpXor: 0x32,
		OpCmp: 0x3A, OpMov: 0x8A,
	})
	x86ALImm = opTable(map[Op]byte{
		OpAdd: 0x04, OpOr: 0x0C, OpAnd: 0x24, OpSub: 0x2C, OpXor: 0x34, OpCmp: 0x3C,
	})
)

// opTable returns the encoder table holding pairs, noEnc everywhere else.
func opTable(pairs map[Op]byte) (t [256]byte) {
	for i := range t {
		t[i] = noEnc
	}
	for op, b := range pairs {
		t[op] = b
	}
	return t
}

// x86GrpOp is the decoder's inverse of x86GrpExt, indexed by the ModRM
// reg field; OpInvalid marks the undefined extensions.
var x86GrpOp = [8]Op{0: OpAdd, 1: OpOr, 4: OpAnd, 5: OpSub, 6: OpXor, 7: OpCmp}

// Decoder-side opcode tables, indexed by the first opcode byte; OpInvalid
// marks a byte the form does not use. They are arrays, not maps, because
// the interpreter, the translator and the gadget miner decode through
// them at every instruction.

// x86ByteALImm holds the "op al, imm8" single-byte opcodes, the inverse
// of x86ALImm.
var x86ByteALImm = [256]Op{
	0x04: OpAdd, 0x0C: OpOr, 0x24: OpAnd, 0x2C: OpSub, 0x34: OpXor, 0x3C: OpCmp,
}

// aluRM and aluMR are the inverses of x86ALURM and x86ALUMR.
var aluRM = [256]Op{
	xopAddRM: OpAdd, xopOrRM: OpOr, xopAndRM: OpAnd,
	xopSubRM: OpSub, xopXorRM: OpXor, xopCmpRM: OpCmp, xopMovRM: OpMov,
}
var aluMR = [256]Op{
	xopAddMR: OpAdd, xopOrMR: OpOr, xopAndMR: OpAnd,
	xopSubMR: OpSub, xopXorMR: OpXor, xopCmpMR: OpCmp, xopMovMR: OpMov,
	xopTestMR: OpTest,
}

// byteMROp and byteRMOp are the inverses of x86ByteMR and x86ByteRM.
var byteMROp = [256]Op{
	0x00: OpAdd, 0x08: OpOr, 0x20: OpAnd, 0x28: OpSub, 0x30: OpXor,
	0x38: OpCmp, 0x88: OpMov,
}
var byteRMOp = [256]Op{
	0x02: OpAdd, 0x0A: OpOr, 0x22: OpAnd, 0x2A: OpSub, 0x32: OpXor,
	0x3A: OpCmp, 0x8A: OpMov,
}

// encodeX86Byte appends the 8-bit operand forms.
func encodeX86Byte(in *Inst, dst []byte) ([]byte, error) {
	switch {
	case in.Op == OpMov && in.Dst.Kind == OpdReg && in.Src.Kind == OpdImm:
		if in.Dst.Reg > 7 {
			return dst, fmt.Errorf("%w: mov8 register", ErrInvalid)
		}
		return append(dst, 0xB0+byte(in.Dst.Reg), byte(in.Src.Imm)), nil
	case in.Src.Kind == OpdImm:
		if op1 := x86ALImm[in.Op]; op1 != noEnc && in.Dst.IsReg(EAX) {
			return append(dst, op1, byte(in.Src.Imm)), nil
		}
		ext := x86GrpExt[in.Op]
		if ext == noEnc {
			return dst, fmt.Errorf("%w: byte group op %s", ErrInvalid, in.Op)
		}
		out, err := appendOpModRM(dst, 0x80, ext, in.Dst)
		return withImm(out, err, in.Src.Imm, false)
	case in.Dst.Kind == OpdReg && in.Src.Kind != OpdReg:
		op := x86ByteRM[in.Op]
		if op == noEnc {
			return dst, fmt.Errorf("%w: byte rm op %s", ErrInvalid, in.Op)
		}
		return appendOpModRM(dst, op, byte(in.Dst.Reg), in.Src)
	case in.Src.Kind == OpdReg:
		op := x86ByteMR[in.Op]
		if op == noEnc {
			return dst, fmt.Errorf("%w: byte mr op %s", ErrInvalid, in.Op)
		}
		return appendOpModRM(dst, op, byte(in.Src.Reg), in.Dst)
	}
	return dst, fmt.Errorf("%w: byte operand shape", ErrInvalid)
}

// encodeX86 appends the x86 byte representation of in to dst. Direct
// control transfers are encoded with rel32 displacements computed from
// in.Addr (the address the instruction will be placed at) and in.Target.
func encodeX86(in *Inst, dst []byte) ([]byte, error) {
	if in.ByteOp {
		return encodeX86Byte(in, dst)
	}
	switch in.Op {
	case OpNop:
		return append(dst, xopNop), nil
	case OpHlt:
		return append(dst, xopHlt), nil
	case OpRet:
		if in.Imm > 0 {
			return append(dst, 0xC2, byte(in.Imm), byte(in.Imm>>8)), nil
		}
		return append(dst, xopRet), nil
	case OpLeave:
		return append(dst, xopLeave), nil
	case OpSys:
		return append(dst, xopInt, byte(in.Imm)), nil
	case OpInc, OpDec:
		if in.Dst.Kind != OpdReg || in.Dst.Reg > 7 {
			return dst, fmt.Errorf("%w: inc/dec needs x86 register dst", ErrInvalid)
		}
		base := byte(xopInc)
		if in.Op == OpDec {
			base = xopDec
		}
		return append(dst, base+byte(in.Dst.Reg)), nil
	case OpPush:
		switch in.Src.Kind {
		case OpdReg:
			if in.Src.Reg > 7 {
				return dst, fmt.Errorf("%w: push register %d", ErrInvalid, in.Src.Reg)
			}
			return append(dst, xopPush+byte(in.Src.Reg)), nil
		case OpdImm:
			return appendImm32(append(dst, xopPushI), in.Src.Imm), nil
		case OpdMem:
			return appendOpModRM(dst, xopFF, 6, in.Src)
		}
		return dst, fmt.Errorf("%w: push operand", ErrInvalid)
	case OpPop:
		switch in.Dst.Kind {
		case OpdReg:
			if in.Dst.Reg > 7 {
				return dst, fmt.Errorf("%w: pop register %d", ErrInvalid, in.Dst.Reg)
			}
			return append(dst, xopPop+byte(in.Dst.Reg)), nil
		case OpdMem:
			return appendOpModRM(dst, xopPopM, 0, in.Dst)
		}
		return dst, fmt.Errorf("%w: pop operand", ErrInvalid)
	case OpMov:
		switch {
		case in.Dst.Kind == OpdReg && in.Src.Kind == OpdImm:
			if in.Dst.Reg > 7 {
				return dst, fmt.Errorf("%w: mov register %d", ErrInvalid, in.Dst.Reg)
			}
			return appendImm32(append(dst, xopMovRI+byte(in.Dst.Reg)), in.Src.Imm), nil
		case in.Src.Kind == OpdImm:
			out, err := appendOpModRM(dst, xopMovMI, 0, in.Dst)
			return withImm(out, err, in.Src.Imm, true)
		case in.Dst.Kind == OpdReg && in.Src.Kind != OpdReg:
			return appendOpModRM(dst, xopMovRM, byte(in.Dst.Reg), in.Src)
		case in.Src.Kind == OpdReg:
			return appendOpModRM(dst, xopMovMR, byte(in.Src.Reg), in.Dst)
		}
		return dst, fmt.Errorf("%w: mov mem,mem", ErrInvalid)
	case OpLea:
		if in.Dst.Kind != OpdReg || in.Src.Kind != OpdMem {
			return dst, fmt.Errorf("%w: lea operands", ErrInvalid)
		}
		return appendOpModRM(dst, xopLea, byte(in.Dst.Reg), in.Src)
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpCmp:
		if in.Src.Kind == OpdImm {
			if in.Src.Imm >= -128 && in.Src.Imm <= 127 {
				out, err := appendOpModRM(dst, xopGrpI8, x86GrpExt[in.Op], in.Dst)
				return withImm(out, err, in.Src.Imm, false)
			}
			out, err := appendOpModRM(dst, xopGrpI32, x86GrpExt[in.Op], in.Dst)
			return withImm(out, err, in.Src.Imm, true)
		}
		if in.Dst.Kind == OpdReg && in.Src.Kind == OpdMem {
			return appendOpModRM(dst, x86ALURM[in.Op], byte(in.Dst.Reg), in.Src)
		}
		if in.Src.Kind == OpdReg {
			return appendOpModRM(dst, x86ALUMR[in.Op], byte(in.Src.Reg), in.Dst)
		}
		return dst, fmt.Errorf("%w: %s operands", ErrInvalid, in.Op)
	case OpTest:
		if in.Src.Kind != OpdReg {
			return dst, fmt.Errorf("%w: test needs register src", ErrInvalid)
		}
		return appendOpModRM(dst, xopTestMR, byte(in.Src.Reg), in.Dst)
	case OpShl, OpShr:
		ext := byte(4)
		if in.Op == OpShr {
			ext = 5
		}
		switch {
		case in.Src.Kind == OpdImm:
			out, err := appendOpModRM(dst, xopShGrp, ext, in.Dst)
			return withImm(out, err, in.Src.Imm, false)
		case in.Src.IsReg(ECX):
			return appendOpModRM(dst, xopShCL, ext, in.Dst)
		}
		if _, err := appendModRM(dst, ext, in.Dst); err != nil {
			return dst, err
		}
		return dst, fmt.Errorf("%w: shift count must be imm or cl", ErrInvalid)
	case OpMul:
		if in.Dst.Kind == OpdReg && in.Src.Kind == OpdImm {
			// imul r, r/m, imm: r = r/m * imm (r/m defaults to dst).
			rm := in.Src2
			if rm.Kind == OpdNone {
				rm = in.Dst
			}
			if in.Src.Imm >= -128 && in.Src.Imm <= 127 {
				out, err := appendOpModRM(dst, 0x6B, byte(in.Dst.Reg), rm)
				return withImm(out, err, in.Src.Imm, false)
			}
			out, err := appendOpModRM(dst, 0x69, byte(in.Dst.Reg), rm)
			return withImm(out, err, in.Src.Imm, true)
		}
		if in.Dst.Kind == OpdReg {
			return appendModRM(append(dst, xopTwo, 0xAF), byte(in.Dst.Reg), in.Src)
		}
		return dst, fmt.Errorf("%w: imul needs register dst", ErrInvalid)
	case OpDiv:
		return appendOpModRM(dst, xopF7, 6, in.Src)
	case OpNeg:
		return appendOpModRM(dst, xopF7, 3, in.Dst)
	case OpNot:
		return appendOpModRM(dst, xopF7, 2, in.Dst)
	case OpJmp:
		return appendImm32(append(dst, xopJmp), int32(in.Target)-int32(in.Addr)-5), nil
	case OpCall:
		return appendImm32(append(dst, xopCall), int32(in.Target)-int32(in.Addr)-5), nil
	case OpJcc:
		if int(in.Cond) >= len(condCC) || condCC[in.Cond] == noEnc {
			return dst, fmt.Errorf("%w: jcc condition %s", ErrInvalid, in.Cond)
		}
		rel := int32(in.Target) - int32(in.Addr) - 6
		return appendImm32(append(dst, xopTwo, 0x80+condCC[in.Cond]), rel), nil
	case OpJmpI:
		return appendOpModRM(dst, xopFF, 4, in.Dst)
	case OpCallI:
		return appendOpModRM(dst, xopFF, 2, in.Dst)
	}
	return dst, fmt.Errorf("%w: op %s not encodable on x86", ErrInvalid, in.Op)
}

// decodeModRM decodes a ModRM byte sequence starting at b[0] into the r/m
// operand *rm, returning the reg field and the number of bytes consumed.
func decodeModRM(b []byte, rm *Operand) (reg byte, n int, err error) {
	if len(b) < 1 {
		return 0, 0, ErrTruncated
	}
	modrm := b[0]
	mod := modrm >> 6
	reg = modrm >> 3 & 7
	rmf := modrm & 7
	n = 1
	if mod == 3 {
		*rm = R(Reg(rmf))
		return reg, n, nil
	}
	*rm = Operand{Kind: OpdMem}
	m := &rm.Mem
	if rmf == 4 { // SIB
		if len(b) < 2 {
			return 0, 0, ErrTruncated
		}
		sib := b[1]
		n = 2
		scale := sib >> 6
		index := sib >> 3 & 7
		base := sib & 7
		if index != 4 {
			m.HasIndex = true
			m.Index = Reg(index)
			m.Scale = 1 << scale
		}
		if base == 5 && mod == 0 {
			if len(b) < n+4 {
				return 0, 0, ErrTruncated
			}
			m.Disp = int32(binary.LittleEndian.Uint32(b[n:]))
			return reg, n + 4, nil
		}
		m.HasBase = true
		m.Base = Reg(base)
	} else if mod == 0 && rmf == 5 {
		if len(b) < n+4 {
			return 0, 0, ErrTruncated
		}
		m.Disp = int32(binary.LittleEndian.Uint32(b[n:]))
		return reg, n + 4, nil
	} else {
		m.HasBase = true
		m.Base = Reg(rmf)
	}
	switch mod {
	case 1:
		if len(b) < n+1 {
			return 0, 0, ErrTruncated
		}
		m.Disp = int32(int8(b[n]))
		n++
	case 2:
		if len(b) < n+4 {
			return 0, 0, ErrTruncated
		}
		m.Disp = int32(binary.LittleEndian.Uint32(b[n:]))
		n += 4
	}
	return reg, n, nil
}

// decodeX86 decodes one x86 instruction from b, which holds the bytes at
// address addr, into *in (see Decode).
func decodeX86(b []byte, addr uint32, in *Inst) error {
	*in = Inst{ISA: X86, Addr: addr, Cond: CondAlways}
	if len(b) == 0 {
		return ErrTruncated
	}
	op := b[0]
	// size checks that b holds the n bytes an instruction needs and, if
	// so, records n as its size.
	size := func(n int) error {
		if len(b) < n {
			return ErrTruncated
		}
		in.Size = uint8(n)
		return nil
	}
	switch {
	case op == xopNop:
		in.Op = OpNop
		return size(1)
	case op == xopHlt:
		in.Op = OpHlt
		return size(1)
	case op == xopRet:
		in.Op = OpRet
		return size(1)
	case op == 0xC2: // ret imm16: pop return address, then free imm bytes
		if err := size(3); err != nil {
			return err
		}
		in.Op = OpRet
		in.Imm = int32(binary.LittleEndian.Uint16(b[1:]))
		return nil
	case op == 0xF8 || op == 0xF9 || op == 0xFC || op == 0xFD || op == 0x98:
		// Flag/width manipulation without modeled effect.
		in.Op = OpNop
		return size(1)
	case op >= 0xB0 && op < 0xB8: // mov r8, imm8
		if err := size(2); err != nil {
			return err
		}
		in.Op = OpMov
		in.ByteOp = true
		in.Dst = R(Reg(op - 0xB0))
		in.Src = I(int32(b[1]))
		return nil
	case x86ByteALImm[op] != OpInvalid:
		if err := size(2); err != nil {
			return err
		}
		in.Op = x86ByteALImm[op]
		in.ByteOp = true
		in.Dst = R(EAX)
		in.Src = I(int32(b[1]))
		return nil
	case op == 0x80: // byte group: op r/m8, imm8
		ext, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		if in.Op = x86GrpOp[ext]; in.Op == OpInvalid {
			return ErrInvalid
		}
		if err := size(1 + n + 1); err != nil {
			return err
		}
		in.ByteOp = true
		in.Src = I(int32(b[1+n]))
		return nil
	case op == xopLeave:
		in.Op = OpLeave
		return size(1)
	case op == xopInt:
		if err := size(2); err != nil {
			return err
		}
		in.Op = OpSys
		in.Imm = int32(b[1])
		return nil
	case op >= xopInc && op < xopInc+8:
		in.Op = OpInc
		in.Dst = R(Reg(op - xopInc))
		return size(1)
	case op >= xopDec && op < xopDec+8:
		in.Op = OpDec
		in.Dst = R(Reg(op - xopDec))
		return size(1)
	case op >= xopPush && op < xopPush+8:
		in.Op = OpPush
		in.Src = R(Reg(op - xopPush))
		return size(1)
	case op >= xopPop && op < xopPop+8:
		in.Op = OpPop
		in.Dst = R(Reg(op - xopPop))
		return size(1)
	case op == xopPushI:
		if err := size(5); err != nil {
			return err
		}
		in.Op = OpPush
		in.Src = I(int32(binary.LittleEndian.Uint32(b[1:])))
		return nil
	case op >= xopJccS && op < xopJccS+16:
		if in.Cond = ccCond[op-xopJccS]; in.Cond == noCond {
			return ErrInvalid
		}
		if err := size(2); err != nil {
			return err
		}
		in.Op = OpJcc
		in.Target = addr + 2 + uint32(int32(int8(b[1])))
		return nil
	case op >= xopMovRI && op < xopMovRI+8:
		if err := size(5); err != nil {
			return err
		}
		in.Op = OpMov
		in.Dst = R(Reg(op - xopMovRI))
		in.Src = I(int32(binary.LittleEndian.Uint32(b[1:])))
		return nil
	case op == xopJmpS:
		if err := size(2); err != nil {
			return err
		}
		in.Op = OpJmp
		in.Target = addr + 2 + uint32(int32(int8(b[1])))
		return nil
	case op == xopJmp:
		if err := size(5); err != nil {
			return err
		}
		in.Op = OpJmp
		in.Target = addr + 5 + uint32(int32(binary.LittleEndian.Uint32(b[1:])))
		return nil
	case op == xopCall:
		if err := size(5); err != nil {
			return err
		}
		in.Op = OpCall
		in.Target = addr + 5 + uint32(int32(binary.LittleEndian.Uint32(b[1:])))
		return nil
	case op == xopTwo:
		if len(b) < 2 {
			return ErrTruncated
		}
		op2 := b[1]
		switch {
		case op2 >= 0x80 && op2 < 0x90:
			if in.Cond = ccCond[op2-0x80]; in.Cond == noCond {
				return ErrInvalid
			}
			if err := size(6); err != nil {
				return err
			}
			in.Op = OpJcc
			in.Target = addr + 6 + uint32(int32(binary.LittleEndian.Uint32(b[2:])))
			return nil
		case op2 == 0xAF:
			reg, n, err := decodeModRM(b[2:], &in.Src)
			if err != nil {
				return err
			}
			in.Op = OpMul
			in.Dst = R(Reg(reg))
			return size(2 + n)
		}
		return ErrInvalid
	}
	switch op {
	case 0x6B, 0x69: // imul r, r/m, imm
		reg, n, err := decodeModRM(b[1:], &in.Src2)
		if err != nil {
			return err
		}
		in.Op = OpMul
		in.Dst = R(Reg(reg))
		if op == 0x6B {
			if err := size(1 + n + 1); err != nil {
				return err
			}
			in.Src = I(int32(int8(b[1+n])))
			return nil
		}
		if err := size(1 + n + 4); err != nil {
			return err
		}
		in.Src = I(int32(binary.LittleEndian.Uint32(b[1+n:])))
		return nil
	}
	// Byte-form ModRM ALU (op r/m8, r8) / (op r8, r/m8) — including the
	// all-zeros encoding 00 /r, the densest source of unintentional
	// gadgets in real x86 binaries.
	if o := byteMROp[op]; o != OpInvalid {
		reg, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		in.Op = o
		in.ByteOp = true
		in.Src = R(Reg(reg))
		return size(1 + n)
	}
	if o := byteRMOp[op]; o != OpInvalid {
		reg, n, err := decodeModRM(b[1:], &in.Src)
		if err != nil {
			return err
		}
		in.Op = o
		in.ByteOp = true
		in.Dst = R(Reg(reg))
		return size(1 + n)
	}
	// ModRM-based forms.
	if o := aluRM[op]; o != OpInvalid {
		reg, n, err := decodeModRM(b[1:], &in.Src)
		if err != nil {
			return err
		}
		in.Op = o
		in.Dst = R(Reg(reg))
		return size(1 + n)
	}
	if o := aluMR[op]; o != OpInvalid {
		reg, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		in.Op = o
		in.Src = R(Reg(reg))
		return size(1 + n)
	}
	switch op {
	case xopLea:
		reg, n, err := decodeModRM(b[1:], &in.Src)
		if err != nil {
			return err
		}
		if in.Src.Kind != OpdMem {
			return ErrInvalid
		}
		in.Op = OpLea
		in.Dst = R(Reg(reg))
		return size(1 + n)
	case xopGrpI8, xopGrpI32:
		ext, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		if in.Op = x86GrpOp[ext]; in.Op == OpInvalid {
			return ErrInvalid
		}
		if op == xopGrpI8 {
			if err := size(1 + n + 1); err != nil {
				return err
			}
			in.Src = I(int32(int8(b[1+n])))
			return nil
		}
		if err := size(1 + n + 4); err != nil {
			return err
		}
		in.Src = I(int32(binary.LittleEndian.Uint32(b[1+n:])))
		return nil
	case xopMovMI:
		ext, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		if ext != 0 {
			return ErrInvalid
		}
		if err := size(1 + n + 4); err != nil {
			return err
		}
		in.Op = OpMov
		in.Src = I(int32(binary.LittleEndian.Uint32(b[1+n:])))
		return nil
	case xopShGrp, xopShCL:
		ext, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		switch ext {
		case 4:
			in.Op = OpShl
		case 5:
			in.Op = OpShr
		default:
			return ErrInvalid
		}
		if op == xopShGrp {
			if err := size(1 + n + 1); err != nil {
				return err
			}
			in.Src = I(int32(b[1+n]))
			return nil
		}
		in.Src = R(ECX)
		return size(1 + n)
	case xopF7:
		ext, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		switch ext {
		case 2:
			in.Op = OpNot
		case 3:
			in.Op = OpNeg
		case 4, 6:
			// mul/div r/m: the r/m operand is the source, EAX the
			// destination.
			in.Op = OpMul
			if ext == 6 {
				in.Op = OpDiv
			}
			in.Src = in.Dst
			in.Dst = R(EAX)
		default:
			return ErrInvalid
		}
		return size(1 + n)
	case xopFF:
		ext, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		switch ext {
		case 2:
			in.Op = OpCallI
		case 4:
			in.Op = OpJmpI
		case 6:
			in.Op = OpPush
			in.Src = in.Dst
			in.Dst = Operand{}
		default:
			return ErrInvalid
		}
		return size(1 + n)
	case xopPopM:
		ext, n, err := decodeModRM(b[1:], &in.Dst)
		if err != nil {
			return err
		}
		if ext != 0 {
			return ErrInvalid
		}
		in.Op = OpPop
		return size(1 + n)
	}
	return ErrInvalid
}
