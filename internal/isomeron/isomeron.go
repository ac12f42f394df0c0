// Package isomeron models the Isomeron baseline (Davi et al. 2015), the
// only other JIT-ROP defense the paper compares against (§2, Figure 14).
//
// Isomeron keeps two functionally equivalent program variants loaded and
// flips a coin at every function call and return to decide which variant
// executes next ("execution-path diversification"). Security-wise it
// contributes one bit of entropy per gadget; performance-wise its program
// shepherding instruments every call/return and defeats return-address
// prediction, which is where its overhead comes from — the paper quotes
// the original authors on branch-prediction-defeating overheads.
package isomeron

import (
	"math/rand"

	"hipstr/internal/perf"
)

// Config models Isomeron's runtime costs.
type Config struct {
	// DiversifyProb is the per-call/return probability of switching
	// variants (1.0 in the original system; Figure 14 sweeps it).
	DiversifyProb float64
}

// DefaultConfig mirrors the published system's behavior.
func DefaultConfig() Config {
	return Config{DiversifyProb: 1.0}
}

// The published system's fixed costs, and the seed of its coin flips.
const (
	// shepherdFrac is the always-on dynamic-instrumentation overhead of
	// Isomeron's program shepherding, as a fraction of base cycles. The
	// HIPStR paper quotes the Isomeron authors on their shepherding
	// rendering "CPU optimizations like branch prediction ineffective";
	// Isomeron's published baseline overhead is ~19%.
	shepherdFrac = 0.19
	// shepherdCycles is the instrumentation cost charged at every call
	// and return (the diversifier coin flip + indirection table lookup).
	shepherdCycles = 14
	// switchCycles is the extra cost when execution actually switches
	// variants (cold code, new return-address mapping).
	switchCycles = 22
	// rasDefeatPenalty models the broken return-address-stack prediction:
	// every return mispredicts with probability DiversifyProb.
	rasDefeatPenalty = 15
	// coinSeed seeds the diversifier's coin flips.
	coinSeed = 1
)

// Result is a modeled Isomeron run derived from a native measurement.
type Result struct {
	BaseCycles     float64
	OverheadCycles float64
	Switches       uint64
	// Relative is performance relative to native (1.0 = parity).
	Relative float64
}

// Apply derives Isomeron's cost over the same work window as the native
// measurement m: every call and return pays shepherding, diversification
// flips pay the switch cost, and returns lose their predictability.
func (c Config) Apply(m perf.Measurement) Result {
	rng := rand.New(rand.NewSource(coinSeed))
	events := m.Counts.Calls + m.Counts.Returns
	var switches uint64
	for i := uint64(0); i < events; i++ {
		if rng.Float64() < c.DiversifyProb {
			switches++
		}
	}
	overhead := m.Cycles*shepherdFrac +
		float64(events)*shepherdCycles +
		float64(switches)*switchCycles +
		float64(m.Counts.Returns)*c.DiversifyProb*rasDefeatPenalty
	total := m.Cycles + overhead
	r := Result{
		BaseCycles:     m.Cycles,
		OverheadCycles: overhead,
		Switches:       switches,
	}
	if total > 0 {
		r.Relative = m.Cycles / total
	}
	return r
}

// CombineWithPSR models the PSR+Isomeron hybrid of §7: PSR's measured
// cycles plus Isomeron's shepherding over the same call/return counts.
func (c Config) CombineWithPSR(native, psrRun perf.Measurement) Result {
	iso := c.Apply(perf.Measurement{Cycles: psrRun.Cycles, Counts: psrRun.Counts})
	total := psrRun.Cycles + iso.OverheadCycles
	return Result{
		BaseCycles:     psrRun.Cycles,
		OverheadCycles: iso.OverheadCycles,
		Switches:       iso.Switches,
		Relative:       native.Cycles / total,
	}
}
