package isa_test

import (
	"errors"
	"testing"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/workload"
)

// wantDecodeDigest is the digest TestDecodeFuseDigest folds over the
// compiled benchmarks. It was recorded with the by-value decoder
// (Decode returning an Inst) that in-place decoding replaced, so it pins
// every decoded instruction, fused entry, timing summary and decode
// error across that rewrite. Change it only with a change that means to
// alter what the decoders, FuseBlock or SummarizeBlock produce.
const wantDecodeDigest = 0xba8cbfc512003db7

// TestDecodeFuseDigest decodes the x86 text of the nine compiled
// benchmarks at every byte offset, as the gadget miner does, and their
// ARM text at every word. At every offset that decodes it also decodes,
// fuses and summarizes the block starting there, as the interpreter's
// block cache does, and folds every field of every result into one
// digest; a failing offset contributes its error's identity.
//
// The second pass hands DecodeBlock, FuseBlock and SummarizeBlock
// recycled storage full of garbage, as the block cache hands them
// evicted blocks' slices: the digest only matches if the decoder and
// fuser overwrite every field of every slot they fill.
func TestDecodeFuseDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes every benchmark at every offset")
	}
	_, bins := benchBinaries(t)
	clean := decodeDigest(t, bins, false)
	if clean != wantDecodeDigest {
		t.Errorf("digest %#x, want %#x", clean, uint64(wantDecodeDigest))
	}
	if dirty := decodeDigest(t, bins, true); dirty != clean {
		t.Errorf("digest over recycled garbage storage %#x, over fresh storage %#x", dirty, clean)
	}
}

// benchBinaries compiles the nine benchmark profiles (the eight SPEC
// stand-ins and httpd).
func benchBinaries(t *testing.T) ([]workload.Profile, []*fatbin.Binary) {
	t.Helper()
	profiles := append(workload.Profiles(), workload.HTTPD())
	bins := make([]*fatbin.Binary, len(profiles))
	for i, p := range profiles {
		bin, err := workload.Compile(p)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		bins[i] = bin
	}
	return profiles, bins
}

// Garbage that no decoder, fuser or summarizer produces in any field.
var (
	junkOperand = isa.Operand{Kind: 0xEE, Reg: 0xEE, Imm: -0x5A5A5A5B, Mem: isa.MemRef{
		Base: 0xEE, Index: 0xEE, HasBase: true, HasIndex: true, Scale: 0xEE, Disp: -0x5A5A5A5B}}
	junkInst = isa.Inst{Op: 0xEE, Cond: 0xEE, Dst: junkOperand, Src: junkOperand, Src2: junkOperand,
		Target: 0xDEADBEEF, Imm: -0x5A5A5A5B, RegMask: 0xA5A5, Addr: 0xFEEDFACE, Size: 0xEE, ISA: 0xEE, ByteOp: true}
	junkFused = isa.FusedInst{Code: 0xEE, N: 0xEE, Sub: 0xEE, A: 0xEE, B: 0xEE,
		R1: 0xEE, R2: 0xEE, R3: 0xEE, R4: 0xEE, R5: 0xEE, Cond: 0xEE, Op: 0xEE,
		Imm: -0x5A5A5A5B, Imm2: -0x5A5A5A5B, Target: 0xDEADBEEF, Next: 0xFEEDFACE}
	junkCharge = isa.DataCharge{Slot: 0xEE, Kind: 0xEE, Regs: 0xEE}
)

func decodeDigest(t *testing.T, bins []*fatbin.Binary, garbage bool) uint64 {
	d := newDigest()
	var (
		insts   []isa.Inst
		fused   []isa.FusedInst
		charges []isa.DataCharge
	)
	if garbage {
		// cap > len, as recycled blocks arrive; every slot is refilled
		// with garbage before each block so stale results cannot mask a
		// field the decoder leaves alone.
		insts = make([]isa.Inst, machine.BlockCap+8)
		fused = make([]isa.FusedInst, machine.BlockCap+8)
		charges = make([]isa.DataCharge, 4*machine.BlockCap)
		for i := range insts {
			insts[i] = junkInst
			fused[i] = junkFused
		}
		for i := range charges {
			charges[i] = junkCharge
		}
	}
	for _, bin := range bins {
		for _, k := range isa.Kinds {
			text := bin.Text[k]
			base := fatbin.TextBase(k)
			step := 1
			if k == isa.ARM {
				step = isa.WordSize
			}
			for off := 0; off < len(text); off += step {
				addr := base + uint32(off)
				in := isa.Inst{}
				if garbage {
					in = junkInst
				}
				if err := isa.Decode(k, text[off:], addr, &in); err != nil {
					d.word(errIdentity(t, err))
					continue
				}
				d.inst(&in)
				bi, err := isa.DecodeBlock(k, text[off:], addr, insts[:0], machine.BlockCap)
				if err != nil {
					t.Fatalf("%s %s %#x: single decode succeeded, block decode failed: %v", bin.Module, k, addr, err)
				}
				bf, pairs := isa.FuseBlock(bi, fused[:0])
				bt := isa.SummarizeBlock(bi, charges[:0])
				d.word(uint64(len(bi)) | uint64(len(bf))<<16 | uint64(pairs)<<32)
				for i := range bi {
					d.inst(&bi[i])
				}
				for i := range bf {
					d.fused(&bf[i])
				}
				d.timing(&bt)
				if garbage {
					for i := range bi {
						bi[i] = junkInst
					}
					for i := range bf {
						bf[i] = junkFused
					}
					for i := range bt.Charges {
						bt.Charges[i] = junkCharge
					}
				}
			}
		}
	}
	return uint64(d)
}

// errIdentity classifies a decode failure: the bare sentinels, or
// ErrInvalid wrapped with the unaligned-ARM-address message.
func errIdentity(t *testing.T, err error) uint64 {
	switch {
	case err == isa.ErrInvalid:
		return 0xF1
	case err == isa.ErrTruncated:
		return 0xF2
	case errors.Is(err, isa.ErrInvalid):
		return 0xF3
	}
	t.Fatalf("unclassified decode error %v", err)
	return 0
}

// digest is FNV-1a over 64-bit words: each word is XORed in whole, then
// multiplied by the 64-bit FNV prime. Fields are packed into words by
// width, so every bit of every field reaches the sum.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) word(w uint64) { *d = (*d ^ digest(w)) * 1099511628211 }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (d *digest) operand(o *isa.Operand) {
	m := &o.Mem
	d.word(uint64(o.Kind) | uint64(o.Reg)<<8 | uint64(m.Base)<<16 | uint64(m.Index)<<24 |
		b2u(m.HasBase)<<32 | b2u(m.HasIndex)<<40 | uint64(m.Scale)<<48)
	d.word(uint64(uint32(o.Imm)) | uint64(uint32(m.Disp))<<32)
}

func (d *digest) inst(in *isa.Inst) {
	d.word(uint64(in.Op) | uint64(in.Cond)<<8 | uint64(in.Size)<<16 | uint64(in.ISA)<<24 |
		b2u(in.ByteOp)<<32 | uint64(in.RegMask)<<40)
	d.operand(&in.Dst)
	d.operand(&in.Src)
	d.operand(&in.Src2)
	d.word(uint64(in.Target) | uint64(uint32(in.Imm))<<32)
	d.word(uint64(in.Addr))
}

func (d *digest) fused(f *isa.FusedInst) {
	d.word(uint64(f.Code) | uint64(f.N)<<8 | uint64(f.Sub)<<16 | uint64(f.A)<<24 |
		uint64(f.B)<<32 | uint64(f.Cond)<<40 | uint64(f.Op)<<48)
	d.word(uint64(f.R1) | uint64(f.R2)<<8 | uint64(f.R3)<<16 | uint64(f.R4)<<24 | uint64(f.R5)<<32)
	d.word(uint64(uint32(f.Imm)) | uint64(uint32(f.Imm2))<<32)
	d.word(uint64(f.Target) | uint64(f.Next)<<32)
}

func (d *digest) timing(bt *isa.BlockTiming) {
	d.word(uint64(bt.Instrs) | uint64(bt.Loads)<<32)
	d.word(uint64(bt.Stores) | uint64(bt.Branches)<<32)
	d.word(uint64(bt.Calls) | uint64(bt.Returns)<<32)
	d.word(uint64(bt.Muls) | uint64(bt.Divs)<<32)
	d.word(uint64(bt.MultiRegs) | uint64(len(bt.Charges))<<32)
	for _, c := range bt.Charges {
		d.word(uint64(c.Slot) | uint64(c.Kind)<<8 | uint64(c.Regs)<<16)
	}
}
