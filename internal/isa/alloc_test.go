package isa

import "testing"

// TestEncodeAllocs pins the encode contract: appending an instruction of
// any form, on either ISA, to a buffer with room allocates nothing.
func TestEncodeAllocs(t *testing.T) {
	x86 := append(x86Samples(),
		Inst{Op: OpMov, ByteOp: true, Dst: R(EAX), Src: I(5)},
		Inst{Op: OpAdd, ByteOp: true, Dst: R(EAX), Src: I(1)},
		Inst{Op: OpSub, ByteOp: true, Dst: MB(ESP, 4), Src: I(1)},
		Inst{Op: OpMov, ByteOp: true, Dst: R(ECX), Src: MB(EBX, 0)},
		Inst{Op: OpXor, ByteOp: true, Dst: MB(EBX, 0x100), Src: R(EDX)},
	)
	buf := make([]byte, 0, 64)
	for _, c := range []struct {
		k   Kind
		ins []Inst
	}{{X86, x86}, {ARM, armSamples()}} {
		for i := range c.ins {
			in := &c.ins[i]
			if _, err := Encode(c.k, in, buf[:0]); err != nil {
				t.Fatalf("%s %s: %v", c.k, in.String(), err)
			}
			if a := testing.AllocsPerRun(10, func() { buf, _ = Encode(c.k, in, buf[:0]) }); a != 0 {
				t.Errorf("%s %s: %.0f allocs, want 0", c.k, in.String(), a)
			}
		}
	}
}

// TestAssembleAllocs pins the assembler's reuse contract: once an Asm
// has assembled a unit, resetting it and assembling a unit of that size
// again, labels and all, allocates nothing.
func TestAssembleAllocs(t *testing.T) {
	for _, k := range Kinds {
		a := NewAsm(k, 0x1000)
		unit := func() {
			a.Reset(k, 0x1000)
			emitUnit(a, 70000)
			if _, _, err := a.Assemble(); err != nil {
				t.Fatal(err)
			}
		}
		unit()
		if n := testing.AllocsPerRun(10, unit); n != 0 {
			t.Errorf("%s: %.0f allocs per unit on a warmed Asm, want 0", k, n)
		}
	}
}
