package psr

import (
	"math"
	"slices"
	"testing"

	"hipstr/internal/fatbin"
	"hipstr/internal/workload"
)

// wantBuildDigest is the digest TestBuildDigest folds over every map it
// builds. It was recorded with the map-based Build (occupancy, argument
// slots, kept specials and register hosts held in Go maps) that the
// array and bitset version replaced, so it pins every relocation and
// the order of every RNG draw across that rewrite.
const wantBuildDigest = 0x58c78139c7d703ed

// optConfigs are the psr configurations of the VM's O0–O3 levels.
var optConfigs = []Config{
	{RandPages: 2},
	{RandPages: 2},
	{RandPages: 2, GlobalRegCache: 3},
	{RandPages: 2, GlobalRegCache: 3},
}

// TestBuildDigest builds the relocation maps of every function of the
// nine compiled benchmarks on both ISAs, in function order on one
// Randomizer as a VM builds them, for a few seeds at O0–O3 (and one
// 16-page frame), and folds every field of every map, and each
// Randomizer's next draw, into one digest.
func TestBuildDigest(t *testing.T) {
	var bins []*fatbin.Binary
	for _, p := range append(workload.Profiles(), workload.HTTPD()) {
		bin, err := workload.Compile(p)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		bins = append(bins, bin)
	}
	cfgs := append(slices.Clone(optConfigs), Config{RandPages: 16, GlobalRegCache: 3})
	d := uint64(14695981039346656037)
	word := func(w uint64) { d = (d ^ w) * 1099511628211 }
	maps := 0
	for _, bin := range bins {
		for level, cfg := range cfgs {
			// Maps once carried an O1+ boundary-pruning bit, folded here
			// from the level so the recorded digest still applies.
			pruned := level >= 1 && level < len(optConfigs)
			for _, seed := range []int64{1, 2, 7} {
				r := NewRandomizer(seed, cfg)
				for _, fn := range bin.Funcs {
					for _, m := range r.BuildPair(fn) {
						foldMap(word, m, pruned)
						maps++
					}
				}
				// The next draw pins how many draws the builds made.
				word(uint64(r.rng.Int63()))
			}
		}
	}
	if d != wantBuildDigest {
		t.Errorf("digest %#x over %d maps, want %#x", d, maps, uint64(wantBuildDigest))
	}
}

// foldMap feeds every field of m to word, the offset map in key order,
// and pruned where the maps' removed boundary-pruning bit was.
func foldMap(word func(uint64), m *Map, pruned bool) {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	word(uint64(m.Fn.Index) | uint64(m.ISA)<<32 | b2u(pruned)<<40)
	word(uint64(m.RandSpace) | uint64(m.NewFrameSize)<<32)
	word(uint64(uint32(m.RetOff)) | uint64(uint32(m.StageOff))<<32)
	word(uint64(uint32(m.TempOff)) | uint64(m.Params)<<32)
	word(math.Float64bits(m.EntropyBits))
	keys := make([]int32, 0, len(m.OffTo))
	for k := range m.OffTo {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	word(uint64(len(keys)))
	for _, k := range keys {
		word(uint64(uint32(k)) | uint64(uint32(m.OffTo[k]))<<32)
	}
	for _, l := range m.RegTo {
		word(uint64(l.Kind) | uint64(l.Reg)<<8 | uint64(uint32(l.Off))<<32)
	}
	word(uint64(len(m.FreeRegs)))
	for _, r := range m.FreeRegs {
		word(uint64(r))
	}
	word(uint64(len(m.ArgOff)))
	for _, o := range m.ArgOff {
		word(uint64(uint32(o)))
	}
}
