package isa

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
)

// fuzzReader hands out the fuzz input a byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

var fuzzLabels = [...]string{"L0", "L1", "L2", "L3"}

// emitFuzzUnit emits one unit decoded from r: labels placed in order
// (those never placed land at the end of the stream), direct branches
// and calls to them, and mutated copies of the sample instructions. One
// item in sixteen is an instruction the ISA cannot encode, so Assemble
// fails part way through the unit and leaves its buffers dirty.
func emitFuzzUnit(a *Asm, r *fuzzReader) {
	samples := x86Samples()
	if a.kind == ARM {
		samples = armSamples()
	}
	nLabels := int(r.next()%4) + 1
	placed := 0
	n := int(r.next()%24) + 1
	for i := 0; i < n; i++ {
		c := r.next()
		switch {
		case c%16 == 15:
			bad := Inst{Op: OpRsb, Dst: R(0), Src: R(1)} // no x86 form
			if a.kind == ARM {
				bad = Inst{Op: OpLeave} // no ARM form
			}
			a.Emit(bad)
		case c%8 == 0:
			if placed < nLabels {
				a.Label(fuzzLabels[placed])
				placed++
			}
		case c%8 == 1:
			a.Jmp(fuzzLabels[int(r.next())%nLabels])
		case c%8 == 2:
			a.Jcc(Cond(1+r.next()%8), fuzzLabels[int(r.next())%nLabels])
		case c%8 == 3:
			a.Call(fuzzLabels[int(r.next())%nLabels])
		default:
			in := samples[int(r.next())%len(samples)]
			mutateFuzzInst(a.kind, &in, r.next())
			a.Emit(in)
		}
	}
	for ; placed < nLabels; placed++ {
		a.Label(fuzzLabels[placed])
	}
}

// mutateFuzzInst varies in's immediate and displacement within what the
// ISA encodes: on x86 across the 8- and 32-bit forms, on ARM within the
// 13-bit operand2 range.
func mutateFuzzInst(k Kind, in *Inst, b byte) {
	v := int32(int8(b))
	if k == X86 && b&1 != 0 {
		v *= 0x10101
	}
	if in.Op == OpSys || in.Op == OpShl || in.Op == OpShr || in.Op == OpRet || in.Op == OpMovT {
		return // narrow immediates keep their sample values
	}
	if in.Src.Kind == OpdImm && !(k == ARM && in.Op == OpMov && !FitsARMImm(in.Src.Imm)) {
		in.Src.Imm = v
	}
	for _, o := range []*Operand{&in.Dst, &in.Src} {
		if o.Kind == OpdMem && !(k == ARM && o.Mem.HasIndex) {
			o.Mem.Disp = v
		}
	}
}

// FuzzAssemble assembles random units on both ISAs through one Asm
// reused across Resets and through a fresh Asm per unit. Both must fail
// alike or give identical bytes and label addresses, and each item's
// bytes must be its own encoding at its address. This guards the
// assembler's in-place encoding against stale bytes a previous unit (or
// a failed Assemble) left in its reused buffers.
func FuzzAssemble(f *testing.F) {
	f.Add([]byte{0, 0x10, 0, 3, 8, 0x21, 4, 5, 1, 0, 0x24, 9, 2, 3, 0})
	f.Add([]byte{1, 0x20, 4, 3, 12, 0x40, 7, 0x81, 2, 5, 1, 3, 0x44, 0x11, 0x80, 0xFF})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		reused := NewAsm(X86, 0)
		for unit := 0; unit < 8 && len(r) > 0; unit++ {
			k := Kinds[r.next()&1]
			base := 0x10000 + uint32(r.next())<<8 + uint32(r.next())&^3
			unitBytes := append([]byte(nil), r...)

			reused.Reset(k, base)
			emitFuzzUnit(reused, &r)
			gotCode, gotLabels, gotErr := reused.Assemble()

			fr := fuzzReader(unitBytes)
			fresh := NewAsm(k, base)
			emitFuzzUnit(fresh, &fr)
			wantCode, wantLabels, wantErr := fresh.Assemble()

			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("unit %d (%s@%#x): reused Asm error %v, fresh %v", unit, k, base, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !bytes.Equal(gotCode, wantCode) {
				t.Fatalf("unit %d (%s@%#x): reused bytes %x, fresh %x", unit, k, base, gotCode, wantCode)
			}
			if !maps.Equal(gotLabels, wantLabels) {
				t.Fatalf("unit %d (%s@%#x): reused labels %v, fresh %v", unit, k, base, gotLabels, wantLabels)
			}
			checkItemEncodings(t, reused, gotCode, gotLabels)
		}
	})
}

// checkItemEncodings checks that code is the concatenation of each item's
// own encoding at its address, label targets resolved.
func checkItemEncodings(t *testing.T, a *Asm, code []byte, labels map[string]uint32) {
	t.Helper()
	off := 0
	for i := range a.items {
		it := &a.items[i]
		in := it.inst
		in.Addr = it.addr
		if it.label != "" {
			in.Target = labels[it.label]
		}
		enc, err := Encode(a.kind, &in, nil)
		if err != nil {
			t.Fatalf("item %d (%s): %v", i, in.String(), err)
		}
		if it.addr != a.base+uint32(off) || !bytes.Equal(code[off:off+len(enc)], enc) {
			t.Fatalf("item %d (%s) at %#x: bytes %x, own encoding %x at %#x",
				i, in.String(), a.base+uint32(off), code[off:min(off+len(enc), len(code))], enc, it.addr)
		}
		off += len(enc)
	}
	if off != len(code) {
		t.Fatalf("items cover %d bytes of %d", off, len(code))
	}
}
