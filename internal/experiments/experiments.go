// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic benchmark suite. Each driver is
// registered as an Experiment (registry.go) and executed through the
// engine (engine.go): its independent per-workload / per-sweep-point cells
// fan out on a bounded worker pool, its structured rows are published into
// the telemetry registry and written as JSON result artifacts, and its
// printed tables are byte-identical regardless of scheduling.
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"hipstr/internal/compiler"
	"hipstr/internal/fatbin"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/prog"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

// Suite configures a run of the experiment drivers. A Suite is one
// evaluation: it computes each distinct compilation, gadget census and
// window simulation once and serves every later request for it from
// memory, identifying a profile by its name. Running an experiment twice
// on one Suite therefore reuses the first run's simulations; re-measuring
// needs a fresh Suite.
type Suite struct {
	// Profiles is the benchmark list (defaults to the paper's eight).
	Profiles []workload.Profile
	// Quick trims sweeps and samples gadget populations so the whole
	// suite finishes in test-friendly time.
	Quick bool
	// Out receives human-readable tables (nil discards).
	Out io.Writer
	// Parallel bounds the worker pool each driver fans its independent
	// cells out on: 1 runs fully serial, 0 (the default) uses
	// runtime.GOMAXPROCS. Printed output is byte-identical either way.
	Parallel int
	// Telemetry, when set, receives each driver's structured series as
	// gauges plus the engine's run counters and timings.
	Telemetry *telemetry.Telemetry

	// The memos compute each distinct result once per Suite: compiled
	// binaries and gadget censuses keyed by profile name, window
	// simulations by runKey.
	bins     memo[string, compiled]
	censuses memo[string, *gadget.Census]
	runs     memo[runKey, windowRun]

	mu          sync.Mutex
	entropyBits float64 // measured PSR entropy (set by Table2, read by Fig7)

	// expSpan is the currently running experiment's parent span; cell
	// spans in forEach attach under it. Set by the engine before an
	// experiment starts (experiments run sequentially), read by cell
	// workers, so no lock is needed.
	expSpan telemetry.Span
}

// NewSuite returns a Suite over the full benchmark set.
func NewSuite(out io.Writer) *Suite {
	return &Suite{Profiles: workload.Profiles(), Out: out}
}

// QuickSuite returns a reduced suite for tests: the three smallest
// benchmarks and sampled gadget populations.
func QuickSuite(out io.Writer) *Suite {
	var ps []workload.Profile
	for _, name := range []string{"libquantum", "lbm", "mcf"} {
		p, _ := workload.ProfileByName(name)
		ps = append(ps, p)
	}
	return &Suite{Profiles: ps, Quick: true, Out: out}
}

func (s *Suite) printf(format string, args ...interface{}) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, format, args...)
	}
}

// compiled is one benchmark's compile-cache entry.
type compiled struct {
	bin *fatbin.Binary
	mod *prog.Module
}

// compile compiles (and caches) a benchmark. It is safe for concurrent
// use: cells racing on the same profile share one compilation.
func (s *Suite) compile(p workload.Profile) (compiled, error) {
	return s.bins.get(p.Name, func() (compiled, error) {
		mod := workload.Generate(p)
		b, err := compiler.Compile(mod)
		if err != nil {
			return compiled{}, fmt.Errorf("experiments: compile %s: %w", p.Name, err)
		}
		return compiled{bin: b, mod: mod}, nil
	})
}

// bin returns a benchmark's compiled binary.
func (s *Suite) bin(p workload.Profile) (*fatbin.Binary, error) {
	c, err := s.compile(p)
	return c.bin, err
}

// census returns a benchmark's x86 gadget census, taken once per Suite
// and shared by Figs 3, 4, 5 and 8, Table 2 and the httpd study.
func (s *Suite) census(p workload.Profile) (*gadget.Census, error) {
	return s.censuses.get(p.Name, func() (*gadget.Census, error) {
		bin, err := s.bin(p)
		if err != nil {
			return nil, err
		}
		return gadget.TakeCensus(bin, isa.X86), nil
	})
}

// setEntropyBits records the Table 2 measurement for Fig7.
func (s *Suite) setEntropyBits(bits float64) {
	s.mu.Lock()
	s.entropyBits = bits
	s.mu.Unlock()
}

// PSREntropyBits returns the per-gadget PSR entropy measured by Table2, or
// the paper's ~30-bit ballpark before Table2 has run.
func (s *Suite) PSREntropyBits() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entropyBits == 0 {
		return 30
	}
	return s.entropyBits
}

// sample returns how many of c's gadgets a figure evaluates (all of
// them, or in Quick mode an even stride of about 400) and the census
// indices of the viable ones among those.
func (s *Suite) sample(c *gadget.Census) (total int, viable []int) {
	const maxSample = 400
	step := 1
	if s.Quick && len(c.Gadgets) > maxSample {
		step = len(c.Gadgets) / maxSample
	}
	for i := 0; i < len(c.Gadgets); i += step {
		total++
		if c.Effects[i].Viable() {
			viable = append(viable, i)
		}
	}
	return total, viable
}

// header prints a section banner.
func (s *Suite) header(title string) {
	s.printf("\n== %s ==\n", title)
}
