package isa

import "slices"

// DecodeBlock decodes a straight-line run of instructions from code, which
// holds the bytes at address addr, appending to dst and returning it. The
// run ends at the first block terminator (see Inst.EndsBlock), after max
// instructions, or when the remaining bytes no longer decode cleanly.
// Each instruction is decoded in place into the slot it occupies, so dst
// may be recycled storage: Decode overwrites every field.
//
// A short block is not an error: the interpreter retries the failing PC
// through its slow path, which reproduces the exact fetch/decode fault the
// per-step loop would have raised. DecodeBlock returns an error only when
// not a single instruction decodes, so callers always either get progress
// or a diagnosable failure.
func DecodeBlock(k Kind, code []byte, addr uint32, dst []Inst, max int) ([]Inst, error) {
	off := 0
	for n := len(dst); n < max && off < len(code); n++ {
		dst = slices.Grow(dst, 1)[:n+1]
		in := &dst[n]
		if err := Decode(k, code[off:], addr+uint32(off), in); err != nil {
			dst = dst[:n]
			if n > 0 {
				return dst, nil
			}
			return dst, err
		}
		off += int(in.Size)
		if in.EndsBlock() {
			break
		}
	}
	return dst, nil
}
