package isa

import "testing"

// maxInstLen is machine.MaxInstLen, the interpreter's fetch window (isa
// cannot import machine).
const maxInstLen = 16

// fuzzBase is the address the fuzz targets decode at: word-aligned, and
// far enough from both ends of the address space that every ARM branch
// displacement reaches a target without wrapping.
const fuzzBase = 0x08048000

// FuzzDecodeX86 decodes fuzzed bytes at every offset, as the gadget miner
// does to find unintended gadgets.
func FuzzDecodeX86(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { checkDecodes(t, X86, b, 1) })
}

// FuzzDecodeARM decodes fuzzed bytes at every aligned word, as the gadget
// miner does on the aligned ISA.
func FuzzDecodeARM(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { checkDecodes(t, ARM, b, WordSize) })
}

// checkDecodes decodes b at every step-th offset. Each decode must not
// panic, and a successful decode must:
//   - be 1..maxInstLen bytes long (exactly 4 on ARM) and fit in the bytes
//     left;
//   - decode identically from exactly its own bytes, which the fetch
//     window and the miner's backward scan rely on;
//   - re-encode, and decode back from the encoding to the same
//     instruction apart from Size (the x86 encoder always emits the long
//     form, such as the 6-byte jcc).
//
// Every decode lands in an Inst still holding the previous offset's
// result, as recycled block storage does, and is compared with decodes
// into fresh Insts, so a field Decode fails to overwrite shows up as a
// mismatch.
func checkDecodes(t *testing.T, k Kind, b []byte, step int) {
	var in Inst
	for off := 0; off < len(b); off += step {
		addr := uint32(fuzzBase + off)
		if err := Decode(k, b[off:], addr, &in); err != nil {
			continue
		}
		n := int(in.Size)
		if n < 1 || n > maxInstLen || n > len(b)-off || (k == ARM && n != WordSize) {
			t.Fatalf("offset %d: size %d with %d bytes left: % x", off, n, len(b)-off, b[off:])
		}
		var exact Inst
		if err := Decode(k, b[off:off+n], addr, &exact); err != nil || exact != in {
			t.Fatalf("offset %d: decoding only % x gave %+v, %v; want %+v", off, b[off:off+n], exact, err, in)
		}
		enc, err := Encode(k, &in, nil)
		if err != nil {
			t.Fatalf("offset %d: %+v does not re-encode: %v", off, in, err)
		}
		var back Inst
		if err := Decode(k, enc, addr, &back); err != nil {
			t.Fatalf("offset %d: re-encoding % x of %+v does not decode: %v", off, enc, in, err)
		}
		back.Size = in.Size
		if back != in {
			t.Fatalf("offset %d: % x re-encodes as % x, which decodes to %+v", off, b[off:off+n], enc, back)
		}
	}
}
