package isa

import "testing"

func TestByteOpRoundTrip(t *testing.T) {
	samples := []Inst{
		{Op: OpMov, ByteOp: true, Dst: R(EBX), Src: I(0x7F)},
		{Op: OpMov, ByteOp: true, Dst: R(EAX), Src: MB(ESP, 0x10)},
		{Op: OpMov, ByteOp: true, Dst: MB(ESP, 0x10), Src: R(ECX)},
		{Op: OpAdd, ByteOp: true, Dst: R(EAX), Src: I(3)},
		{Op: OpOr, ByteOp: true, Dst: MB(ESP, 0x80C), Src: R(EAX)}, // Figure 2's example
		{Op: OpXor, ByteOp: true, Dst: R(EDX), Src: R(EDX)},
		{Op: OpCmp, ByteOp: true, Dst: R(EBX), Src: I(0x41)},
		{Op: OpSub, ByteOp: true, Dst: MB(EBX, 4), Src: I(1)},
	}
	for i, want := range samples {
		want.ISA = X86
		want.Cond = CondAlways
		enc, err := Encode(X86, &want, nil)
		if err != nil {
			t.Fatalf("sample %d: encode: %v", i, err)
		}
		var got Inst
		if err := Decode(X86, enc, 0, &got); err != nil {
			t.Fatalf("sample %d: decode % x: %v", i, enc, err)
		}
		if !got.ByteOp {
			t.Fatalf("sample %d: lost the byte-op flag", i)
		}
		if got.Op != want.Op {
			t.Fatalf("sample %d: op %s != %s", i, got.Op, want.Op)
		}
	}
}

func TestRetImm16RoundTrip(t *testing.T) {
	in := Inst{Op: OpRet, Imm: 0x10, ISA: X86, Cond: CondAlways}
	enc, err := Encode(X86, &in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != 0xC2 || len(enc) != 3 {
		t.Fatalf("encoding % x", enc)
	}
	var got Inst
	if err := Decode(X86, enc, 0, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != OpRet || got.Imm != 0x10 {
		t.Fatalf("decoded %s imm=%d", got.Op, got.Imm)
	}
}

func TestZeroBytesDecode(t *testing.T) {
	// 00 /r — "add r/m8, r8" — is why real x86's unintentional gadget
	// surface is huge: runs of zero bytes decode as instructions.
	var in Inst
	if err := Decode(X86, []byte{0x00, 0x00, 0x00, 0x00}, 0, &in); err != nil {
		t.Fatalf("zero bytes should decode: %v", err)
	}
	if in.Op != OpAdd || !in.ByteOp {
		t.Fatalf("decoded %s byteop=%v", in.Op, in.ByteOp)
	}
}
