package perf

import (
	"math"
	"testing"

	"hipstr/internal/dbt"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/proc"
	"hipstr/internal/workload"
)

// wantModelDigest is the digest TestModelDigest folds over every run. It
// was recorded with the timestamp-LRU caches (per-way access stamps, a
// last-line memo and deferred stamp writes) that the recency-ordered sets
// replaced, so it pins every cycle total, count and cache and predictor
// statistic across that rewrite.
const wantModelDigest = 0xdf7e7344a43690b2

// digestStepCap bounds each run; every profile exits well before it.
const digestStepCap = 50_000_000

// TestModelDigest runs the nine compiled benchmarks natively on both ISAs
// and under the x86 PSR VM at O0–O3, each with a timing model attached,
// and folds the model's whole observable state — the cycle total's bits,
// the instruction mix, I- and D-cache hits and misses, and predictor
// lookups and mispredicts — into one digest at every progress write and
// at exit.
func TestModelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark to exit under the timing model")
	}
	d := uint64(14695981039346656037)
	word := func(w uint64) { d = (d ^ w) * 1099511628211 }
	fold := func(mo *Model) {
		word(math.Float64bits(mo.Cycles))
		c := mo.Counts
		for _, v := range []uint64{c.Instrs, c.Loads, c.Stores, c.Branches, c.Calls, c.Returns, c.MulDiv} {
			word(v)
		}
		word(mo.ICache.Hits())
		word(mo.ICache.Misses)
		word(mo.DCache.Hits())
		word(mo.DCache.Misses)
		word(mo.Bpred.Lookups)
		word(mo.Bpred.Mispredicts)
	}
	// run drives p to exit (or the cap) under mo, folding at every
	// progress write and once at the end.
	run := func(label string, p *proc.Process, mo *Model) {
		mo.Attach(p.M)
		orig := p.M.Syscall
		p.M.Syscall = func(m *machine.Machine, vec int32) error {
			before := len(p.Trace)
			if err := orig(m, vec); err != nil {
				return err
			}
			if len(p.Trace) != before {
				fold(mo)
			}
			return nil
		}
		steps, err := p.Run(digestStepCap)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !p.Exited {
			t.Errorf("%s: no exit within %d steps", label, steps)
		}
		word(steps)
		fold(mo)
	}
	runs := 0
	for _, prof := range append(workload.Profiles(), workload.HTTPD()) {
		bin, err := workload.Compile(prof)
		if err != nil {
			t.Fatalf("compile %s: %v", prof.Name, err)
		}
		for _, k := range isa.Kinds {
			p, err := proc.New(bin, k)
			if err != nil {
				t.Fatal(err)
			}
			run(prof.Name+"/"+k.String(), p, NewModel(CoreFor(k)))
			runs++
		}
		for _, opt := range []dbt.OptLevel{dbt.O0, dbt.O1, dbt.O2, dbt.O3} {
			cfg := dbt.DefaultConfig()
			cfg.Opt = opt
			cfg.MigrateProb = 0
			vm, err := dbt.New(bin, isa.X86, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mo := NewModel(CoreFor(isa.X86))
			mo.RATEnabled = true
			run(prof.Name+"/psr", vm.P, mo)
			runs++
		}
	}
	if d != wantModelDigest {
		t.Errorf("digest %#x over %d runs, want %#x", d, runs, uint64(wantModelDigest))
	}
}
