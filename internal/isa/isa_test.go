package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func x86Samples() []Inst {
	return []Inst{
		{Op: OpNop},
		{Op: OpRet},
		{Op: OpLeave},
		{Op: OpHlt},
		{Op: OpSys, Imm: 0x80},
		{Op: OpInc, Dst: R(EDX)},
		{Op: OpDec, Dst: R(EDI)},
		{Op: OpPush, Src: R(EBX)},
		{Op: OpPush, Src: I(0x1234)},
		{Op: OpPush, Src: MB(ESP, 0x40)},
		{Op: OpPop, Dst: R(ESI)},
		{Op: OpPop, Dst: MB(EBP, -8)},
		{Op: OpMov, Dst: R(EAX), Src: I(42)},
		{Op: OpMov, Dst: R(EAX), Src: R(EBX)},
		{Op: OpMov, Dst: MB(ESP, 0x7F), Src: R(ECX)},
		{Op: OpMov, Dst: MB(ESP, 0x2000), Src: R(ECX)},
		{Op: OpMov, Dst: R(ECX), Src: MB(ESP, 0x2000)},
		{Op: OpMov, Dst: MB(EBP, 0), Src: R(EDX)},
		{Op: OpMov, Dst: MB(EAX, 12), Src: I(-7)},
		{Op: OpMov, Dst: R(EDX), Src: M(MemRef{Disp: 0x10003000})},
		{Op: OpMov, Dst: R(EDX), Src: M(MemRef{HasBase: true, Base: EAX, HasIndex: true, Index: EDX, Scale: 4, Disp: 0x30})},
		{Op: OpLea, Dst: R(EAX), Src: MB(ESP, 0x44)},
		{Op: OpAdd, Dst: R(EAX), Src: R(EBX)},
		{Op: OpAdd, Dst: R(EAX), Src: I(1)},
		{Op: OpAdd, Dst: MB(ESP, 8), Src: I(0x12345)},
		{Op: OpSub, Dst: R(ESP), Src: I(0x100)},
		{Op: OpAnd, Dst: R(EAX), Src: MB(ESI, 0)},
		{Op: OpOr, Dst: MB(ESP, 0x80C), Src: R(EAX)},
		{Op: OpXor, Dst: R(EDX), Src: R(EDX)},
		{Op: OpCmp, Dst: R(EAX), Src: I(0)},
		{Op: OpTest, Dst: R(EAX), Src: R(EAX)},
		{Op: OpShl, Dst: R(EAX), Src: I(3)},
		{Op: OpShr, Dst: MB(ESP, 4), Src: R(ECX)},
		{Op: OpMul, Dst: R(EAX), Src: R(ECX)},
		{Op: OpMul, Dst: R(EDI), Src: MB(ESP, 0x20)},
		{Op: OpDiv, Dst: R(EAX), Src: R(EBX)},
		{Op: OpNeg, Dst: R(EBX)},
		{Op: OpNot, Dst: MB(ESP, 0x10)},
		{Op: OpJmp, Addr: 0x1000, Target: 0x1200},
		{Op: OpCall, Addr: 0x1000, Target: 0x800},
		{Op: OpJcc, Cond: CondEQ, Addr: 0x1000, Target: 0x1100},
		{Op: OpJcc, Cond: CondLE, Addr: 0x1000, Target: 0xF00},
		{Op: OpJmpI, Dst: R(EAX)},
		{Op: OpJmpI, Dst: MB(EBX, 0x10)},
		{Op: OpCallI, Dst: R(EDX)},
		{Op: OpCallI, Dst: M(MemRef{Disp: 0x10000010})},
	}
}

func armSamples() []Inst {
	return []Inst{
		{Op: OpNop},
		{Op: OpHlt},
		{Op: OpSys, Imm: 0x80},
		{Op: OpMov, Dst: R(R0), Src: I(42)},
		{Op: OpMov, Dst: R(R4), Src: R(R9)},
		{Op: OpMov, Dst: R(R1), Src: I(0xABCD)}, // movw path via imm16? no: 0xABCD > imm13; test separately
		{Op: OpMovT, Dst: R(R1), Src: I(0x1234)},
		{Op: OpNot, Dst: R(R2), Src: R(R3)},
		{Op: OpAdd, Dst: R(R0), Src: R(R1), Src2: R(R2)},
		{Op: OpAdd, Dst: R(SP), Src: I(-64), Src2: R(SP)},
		{Op: OpSub, Dst: R(R5), Src: I(1), Src2: R(R5)},
		{Op: OpRsb, Dst: R(R3), Src: I(0), Src2: R(R4)},
		{Op: OpAnd, Dst: R(R1), Src: R(R2), Src2: R(R1)},
		{Op: OpOr, Dst: R(R7), Src: R(R8), Src2: R(R9)},
		{Op: OpXor, Dst: R(R10), Src: R(R11), Src2: R(R12)},
		{Op: OpShl, Dst: R(R0), Src: I(4), Src2: R(R0)},
		{Op: OpShr, Dst: R(R1), Src: R(R2), Src2: R(R1)},
		{Op: OpMul, Dst: R(R0), Src: R(R1), Src2: R(R2)},
		{Op: OpDiv, Dst: R(R0), Src: R(R1), Src2: R(R0)},
		{Op: OpCmp, Dst: R(R4), Src: I(10)},
		{Op: OpTest, Dst: R(R4), Src: R(R5)},
		{Op: OpLoad, Dst: R(R0), Src: MB(SP, 0x40)},
		{Op: OpLoad, Dst: R(R0), Src: MB(SP, -16)},
		{Op: OpLoad, Dst: R(R3), Src: M(MemRef{HasBase: true, Base: R1, HasIndex: true, Index: R2, Scale: 1})},
		{Op: OpStore, Dst: MB(SP, 0x100), Src: R(R6)},
		{Op: OpJmp, Addr: 0x2000, Target: 0x2400},
		{Op: OpJcc, Cond: CondNE, Addr: 0x2000, Target: 0x1F00},
		{Op: OpCall, Addr: 0x2000, Target: 0x8000},
		{Op: OpBx, Dst: R(LR)},
		{Op: OpCallI, Dst: R(R3)},
		{Op: OpPushM, RegMask: 1<<R4 | 1<<R5 | 1<<LR},
		{Op: OpPopM, RegMask: 1<<R4 | 1<<R5 | 1<<PC},
		{Op: OpPush, Src: R(R0)},
		{Op: OpPop, Dst: R(R1)},
	}
}

func sameOperand(a, b Operand) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case OpdReg:
		return a.Reg == b.Reg
	case OpdImm:
		return a.Imm == b.Imm
	case OpdMem:
		am, bm := a.Mem, b.Mem
		if am.HasBase != bm.HasBase || am.HasIndex != bm.HasIndex || am.Disp != bm.Disp {
			return false
		}
		if am.HasBase && am.Base != bm.Base {
			return false
		}
		if am.HasIndex {
			as, bs := am.Scale, bm.Scale
			if as == 0 {
				as = 1
			}
			if bs == 0 {
				bs = 1
			}
			if am.Index != bm.Index || as != bs {
				return false
			}
		}
	}
	return true
}

func checkRoundTrip(t *testing.T, k Kind, samples []Inst) {
	t.Helper()
	for i, want := range samples {
		want.ISA = k
		if want.Cond == 0 {
			want.Cond = CondAlways
		}
		if k == ARM && want.Op == OpMov && want.Src.Kind == OpdImm && !FitsARMImm(want.Src.Imm) {
			continue // exercised by TestARMMovw below
		}
		enc, err := Encode(k, &want, nil)
		if err != nil {
			t.Fatalf("sample %d (%s): encode: %v", i, want.String(), err)
		}
		var got Inst
		if err := Decode(k, enc, want.Addr, &got); err != nil {
			t.Fatalf("sample %d (%s): decode % x: %v", i, want.String(), enc, err)
		}
		if got.Op != want.Op {
			// push r / pop r on ARM decode to the multi-register forms.
			if k == ARM && want.Op == OpPush && got.Op == OpPushM && got.RegMask == 1<<want.Src.Reg {
				continue
			}
			if k == ARM && want.Op == OpPop && got.Op == OpPopM && got.RegMask == 1<<want.Dst.Reg {
				continue
			}
			t.Fatalf("sample %d: op mismatch: want %s got %s", i, want.Op, got.Op)
		}
		if int(got.Size) != len(enc) {
			t.Errorf("sample %d (%s): size %d != encoded length %d", i, want.String(), got.Size, len(enc))
		}
		if got.Op == OpJmp || got.Op == OpJcc || got.Op == OpCall {
			if got.Target != want.Target {
				t.Errorf("sample %d (%s): target %#x != %#x", i, want.String(), got.Target, want.Target)
			}
			if got.Cond != want.Cond {
				t.Errorf("sample %d (%s): cond %s != %s", i, want.String(), got.Cond, want.Cond)
			}
			continue
		}
		if got.Op == OpPushM || got.Op == OpPopM {
			if got.RegMask != want.RegMask {
				t.Errorf("sample %d: mask %#x != %#x", i, got.RegMask, want.RegMask)
			}
			continue
		}
		if got.Op == OpSys && got.Imm != want.Imm {
			t.Errorf("sample %d: sys imm %#x != %#x", i, got.Imm, want.Imm)
		}
		// ARM two-operand ALU round-trips with an explicit Src2.
		wantSrc2 := want.Src2
		if k == ARM && wantSrc2.Kind == OpdNone {
			switch want.Op {
			case OpAdd, OpSub, OpRsb, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv:
				wantSrc2 = want.Dst
			}
		}
		if !sameOperand(got.Dst, want.Dst) {
			t.Errorf("sample %d (%s): dst %s != %s", i, want.String(), got.Dst, want.Dst)
		}
		if !sameOperand(got.Src, want.Src) {
			t.Errorf("sample %d (%s): src %s != %s", i, want.String(), got.Src, want.Src)
		}
		if wantSrc2.Kind != OpdNone && !sameOperand(got.Src2, wantSrc2) {
			t.Errorf("sample %d (%s): src2 %s != %s", i, want.String(), got.Src2, wantSrc2)
		}
	}
}

func TestX86RoundTrip(t *testing.T) { checkRoundTrip(t, X86, x86Samples()) }
func TestARMRoundTrip(t *testing.T) { checkRoundTrip(t, ARM, armSamples()) }

func TestX86EncodingLengthsVary(t *testing.T) {
	lens := map[int]bool{}
	for _, in := range x86Samples() {
		enc, err := Encode(X86, &in, nil)
		if err != nil {
			t.Fatal(err)
		}
		lens[len(enc)] = true
	}
	if len(lens) < 4 {
		t.Fatalf("x86 should be variable length; got lengths %v", lens)
	}
}

func TestARMFixedWidth(t *testing.T) {
	for _, in := range armSamples() {
		if in.Op == OpMov && in.Src.Kind == OpdImm && !FitsARMImm(in.Src.Imm) {
			continue
		}
		enc, err := Encode(ARM, &in, nil)
		if err != nil {
			t.Fatalf("%s: %v", in.String(), err)
		}
		if len(enc) != 4 {
			t.Fatalf("%s: arm encoding must be 4 bytes, got %d", in.String(), len(enc))
		}
	}
}

func TestARMMovwMovtMaterialize(t *testing.T) {
	// movw r1, #0xBEEF ; movt r1, #0xDEAD materializes 0xDEADBEEF.
	movw := Inst{Op: OpMov, Dst: R(R1), Src: I(int32(0xBEEF))}
	if FitsARMImm(movw.Src.Imm) {
		t.Fatalf("0xBEEF unexpectedly fits the 13-bit immediate")
	}
	// Encoder for wide immediates is provided by MaterializeARMConst.
	insts := MaterializeARMConst(R1, 0xDEADBEEF)
	if len(insts) != 2 {
		t.Fatalf("expected movw+movt, got %d instructions", len(insts))
	}
	for _, in := range insts {
		if _, err := Encode(ARM, &in, nil); err != nil {
			t.Fatalf("encode %s: %v", in.String(), err)
		}
	}
}

func TestARMStrictDecode(t *testing.T) {
	// Random words should overwhelmingly fail to decode: this is the
	// aligned-ISA property that shrinks ARM's gadget surface.
	rng := rand.New(rand.NewSource(1))
	valid := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		var b [4]byte
		rng.Read(b[:])
		var in Inst
		if err := Decode(ARM, b[:], 0, &in); err == nil {
			valid++
		}
	}
	frac := float64(valid) / trials
	if frac > 0.05 {
		t.Fatalf("ARM decoder accepts %.2f%% of random words; want < 5%%", frac*100)
	}
}

func TestX86DenseDecode(t *testing.T) {
	// By contrast a sizable fraction of random x86 byte windows decode.
	rng := rand.New(rand.NewSource(2))
	valid := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		var b [16]byte
		rng.Read(b[:])
		var in Inst
		if err := Decode(X86, b[:], 0, &in); err == nil {
			valid++
		}
	}
	frac := float64(valid) / trials
	if frac < 0.20 {
		t.Fatalf("x86 decoder accepts only %.2f%% of random windows; want >= 20%%", frac*100)
	}
}

func TestRegNames(t *testing.T) {
	if EAX.Name(X86) != "eax" || ESP.Name(X86) != "esp" {
		t.Error("x86 register names wrong")
	}
	if SP.Name(ARM) != "sp" || LR.Name(ARM) != "lr" || PC.Name(ARM) != "pc" || R7.Name(ARM) != "r7" {
		t.Error("arm register names wrong")
	}
}

func TestX86ModRMQuick(t *testing.T) {
	// Property: any register-register mov round-trips for all pairs.
	f := func(d, s uint8) bool {
		in := Inst{Op: OpMov, Dst: R(Reg(d % 8)), Src: R(Reg(s % 8))}
		enc, err := Encode(X86, &in, nil)
		if err != nil {
			return false
		}
		var got Inst
		if err := Decode(X86, enc, 0, &got); err != nil {
			return false
		}
		return got.Op == OpMov && got.Dst.Reg == in.Dst.Reg && got.Src.Reg == in.Src.Reg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestX86DispQuick(t *testing.T) {
	// Property: esp-relative loads round-trip for arbitrary displacements.
	f := func(disp int32, r uint8) bool {
		reg := Reg(r % 8)
		in := Inst{Op: OpMov, Dst: R(reg), Src: MB(ESP, disp)}
		enc, err := Encode(X86, &in, nil)
		if err != nil {
			return false
		}
		var got Inst
		if err := Decode(X86, enc, 0, &got); err != nil {
			return false
		}
		return got.Src.Kind == OpdMem && got.Src.Mem.Disp == disp &&
			got.Src.Mem.Base == ESP && got.Dst.Reg == reg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestARMImmQuick(t *testing.T) {
	// Property: in-range ARM immediates round-trip exactly.
	f := func(v int16, r uint8) bool {
		imm := int32(v) % 4096
		reg := Reg(r % 13)
		in := Inst{Op: OpAdd, Dst: R(reg), Src: I(imm), Src2: R(reg)}
		enc, err := Encode(ARM, &in, nil)
		if err != nil {
			return false
		}
		var got Inst
		if err := Decode(ARM, enc, 0, &got); err != nil {
			return false
		}
		return got.Src.Kind == OpdImm && got.Src.Imm == imm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
