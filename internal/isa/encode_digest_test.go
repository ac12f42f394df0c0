package isa_test

import (
	"bytes"
	"errors"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/workload"
)

// wantEncodeDigest is the digest TestEncodeDigest folds over the compiled
// benchmarks. It was recorded with the returning encoder (Encode
// allocating and returning each instruction's bytes) that the appending
// encoder replaced, so it pins every encoding, every compiled text and
// every translation across that rewrite. Change it only with a change
// that means to alter what the encoders, the compiler or the translator
// produce.
const wantEncodeDigest = 0x6c55fce27c60885d

// encodeLayoutSeeds are the CompileDiversified layouts the digest covers.
var encodeLayoutSeeds = []int64{1, 7}

// TestEncodeDigest folds three things into one digest:
//
//   - every instruction the nine compiled benchmarks decode to (the x86
//     text at every byte offset, as the gadget miner decodes it, the ARM
//     text at every word) re-encoded at its own address, or the encode
//     error's identity;
//   - the ContentHash of every compiled and CompileDiversified binary,
//     which covers the compiler's assembled texts and symbol tables;
//   - the code-cache bytes of a PSR VM after EnsureTranslated of every
//     function entry on both ISAs, which covers the translator's
//     assembler.
//
// The second pass encodes every instruction after a garbage prefix, as
// the assembler appends to a buffer already holding earlier items: the
// prefix must come back intact and the appended bytes must fold to the
// same digest.
func TestEncodeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes every benchmark at every offset and translates every function")
	}
	profiles, bins := benchBinaries(t)
	clean := encodeInstDigest(t, bins, nil)
	if dirty := encodeInstDigest(t, bins, garbagePrefix()); dirty != clean {
		t.Errorf("instruction digest after a garbage prefix %#x, into an empty buffer %#x", dirty, clean)
	}
	d := digest(clean)
	for i, p := range profiles {
		d.word(bins[i].ContentHash())
		for _, seed := range encodeLayoutSeeds {
			div, err := compiler.CompileDiversified(workload.Generate(p), seed)
			if err != nil {
				t.Fatalf("compile %s layout %d: %v", p.Name, seed, err)
			}
			d.word(div.ContentHash())
		}
		translatedDigest(t, &d, bins[i])
	}
	if uint64(d) != wantEncodeDigest {
		t.Errorf("digest %#x, want %#x", uint64(d), uint64(wantEncodeDigest))
	}
}

// garbagePrefix returns bytes no encoder emits in this order, with spare
// capacity behind them that is garbage too.
func garbagePrefix() []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(0xA5 ^ i*37)
	}
	return b[:13]
}

func encodeInstDigest(t *testing.T, bins []*fatbin.Binary, prefix []byte) uint64 {
	d := newDigest()
	keep := bytes.Clone(prefix)
	for _, bin := range bins {
		for _, k := range isa.Kinds {
			text := bin.Text[k]
			base := fatbin.TextBase(k)
			step := 1
			if k == isa.ARM {
				step = isa.WordSize
			}
			var in isa.Inst
			for off := 0; off < len(text); off += step {
				if isa.Decode(k, text[off:], base+uint32(off), &in) != nil {
					continue
				}
				out, err := isa.Encode(k, &in, prefix)
				if !bytes.Equal(out[:len(keep)], keep) {
					t.Fatalf("%s %s %#x: encoding overwrote the %d-byte prefix", bin.Module, k, in.Addr, len(keep))
				}
				if err != nil {
					if len(out) != len(keep) {
						t.Fatalf("%s %s %#x: failed encode grew the buffer to %d", bin.Module, k, in.Addr, len(out))
					}
					d.word(encodeErrIdentity(t, err))
					continue
				}
				enc := out[len(keep):]
				d.word(uint64(len(enc)))
				for _, b := range enc {
					d.word(uint64(b))
				}
			}
		}
	}
	return uint64(d)
}

// encodeErrIdentity classifies an encode failure; every one wraps
// ErrInvalid.
func encodeErrIdentity(t *testing.T, err error) uint64 {
	if !errors.Is(err, isa.ErrInvalid) {
		t.Fatalf("unclassified encode error %v", err)
	}
	return 0xE1
}

// translatedDigest folds the code caches of a fresh PSR VM over bin after
// translating every function entry on both ISAs.
func translatedDigest(t *testing.T, d *digest, bin *fatbin.Binary) {
	cfg := dbt.DefaultConfig()
	cfg.Seed = 3
	cfg.MigrateProb = 0
	cfg.NoSharedUnits = true
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatalf("%s: boot: %v", bin.Module, err)
	}
	for _, fn := range bin.Funcs {
		for _, k := range isa.Kinds {
			if _, err := vm.EnsureTranslated(k, fn.Entry[k]); err != nil {
				t.Fatalf("%s: translate %s on %s: %v", bin.Module, fn.Name, k, err)
			}
		}
	}
	for _, k := range isa.Kinds {
		c := vm.Cache(k)
		code := make([]byte, c.Used())
		if err := vm.P.Mem.Read(c.Base, code); err != nil {
			t.Fatalf("%s: read %s cache: %v", bin.Module, k, err)
		}
		d.word(uint64(len(code)) | uint64(c.Flushes)<<32)
		for i := 0; i < len(code); i += 8 {
			var w uint64
			for j := i; j < i+8 && j < len(code); j++ {
				w |= uint64(code[j]) << (8 * (j - i))
			}
			d.word(w)
		}
	}
}
