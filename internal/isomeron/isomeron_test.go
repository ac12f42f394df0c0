package isomeron

import (
	"testing"

	"hipstr/internal/perf"
)

func sampleMeasurement() perf.Measurement {
	return perf.Measurement{
		Cycles: 1_000_000,
		Instrs: 2_000_000,
		Counts: perf.Counts{
			Instrs:  2_000_000,
			Calls:   10_000,
			Returns: 10_000,
		},
	}
}

func TestOverheadGrowsWithDiversification(t *testing.T) {
	m := sampleMeasurement()
	prev := 1.0
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := DefaultConfig()
		cfg.DiversifyProb = p
		r := cfg.Apply(m)
		if r.Relative <= 0 || r.Relative > 1 {
			t.Fatalf("p=%.2f: relative %.3f out of range", p, r.Relative)
		}
		if r.Relative > prev {
			t.Fatalf("p=%.2f: relative performance increased with diversification", p)
		}
		prev = r.Relative
	}
}

func TestAlwaysOnShepherdingCosts(t *testing.T) {
	m := sampleMeasurement()
	cfg := DefaultConfig()
	cfg.DiversifyProb = 0 // no switching at all
	r := cfg.Apply(m)
	// The instrumentation baseline still costs ~shepherdFrac.
	if r.Relative > 1-shepherdFrac/2 {
		t.Fatalf("p=0 relative %.3f: shepherding cost missing", r.Relative)
	}
}

func TestSwitchCountTracksProbability(t *testing.T) {
	m := sampleMeasurement()
	half := DefaultConfig()
	half.DiversifyProb = 0.5
	r := half.Apply(m)
	events := m.Counts.Calls + m.Counts.Returns
	frac := float64(r.Switches) / float64(events)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("switch fraction %.3f at p=0.5", frac)
	}
}

func TestCombineWithPSRIsWorseThanEither(t *testing.T) {
	native := sampleMeasurement()
	psrRun := native
	psrRun.Cycles = 1_200_000 // PSR costs 20%
	cfg := DefaultConfig()
	combo := cfg.CombineWithPSR(native, psrRun)
	iso := cfg.Apply(native)
	psrRel := native.Cycles / psrRun.Cycles
	if combo.Relative >= iso.Relative || combo.Relative >= psrRel {
		t.Fatalf("combined system (%.3f) should be slower than Isomeron (%.3f) and PSR (%.3f)",
			combo.Relative, iso.Relative, psrRel)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	m := sampleMeasurement()
	cfg := DefaultConfig()
	a := cfg.Apply(m)
	b := cfg.Apply(m)
	if a.Switches != b.Switches {
		t.Fatal("same seed produced different switch counts")
	}
}
