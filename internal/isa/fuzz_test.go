package isa

import "testing"

// maxInstLen is machine.MaxInstLen, the interpreter's fetch window (isa
// cannot import machine).
const maxInstLen = 16

// FuzzDecodeX86 decodes fuzzed bytes at every offset, as the gadget miner
// does to find unintended gadgets. At each offset DecodeX86 must not
// panic, and a successful decode must:
//   - be 1..maxInstLen bytes long and fit in the bytes left;
//   - decode identically from exactly its own bytes, which the fetch
//     window and the miner's backward scan rely on;
//   - re-encode, and decode back from the encoding to the same
//     instruction apart from Size (the encoder always emits the long
//     form, such as the 6-byte jcc).
func FuzzDecodeX86(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		const base = 0x08048000
		for off := range b {
			addr := uint32(base + off)
			in, err := DecodeX86(b[off:], addr)
			if err != nil {
				continue
			}
			n := int(in.Size)
			if n < 1 || n > maxInstLen || n > len(b)-off {
				t.Fatalf("offset %d: size %d with %d bytes left: % x", off, n, len(b)-off, b[off:])
			}
			exact, err := DecodeX86(b[off:off+n], addr)
			if err != nil || exact != in {
				t.Fatalf("offset %d: decoding only % x gave %+v, %v; want %+v", off, b[off:off+n], exact, err, in)
			}
			enc, err := Encode(X86, &in)
			if err != nil {
				t.Fatalf("offset %d: %+v does not re-encode: %v", off, in, err)
			}
			back, err := DecodeX86(enc, addr)
			if err != nil {
				t.Fatalf("offset %d: re-encoding % x of %+v does not decode: %v", off, enc, in, err)
			}
			back.Size = in.Size
			if back != in {
				t.Fatalf("offset %d: % x re-encodes as % x, which decodes to %+v", off, b[off:off+n], enc, back)
			}
		}
	})
}
