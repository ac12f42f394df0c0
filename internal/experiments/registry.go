package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Experiment is one registered driver: a named, self-describing unit the
// engine can run against a Suite.
type Experiment struct {
	name string
	desc string
	run  func(ctx context.Context, s *Suite) (any, error)
}

// Name returns the experiment's registry name (e.g. "fig9").
func (e Experiment) Name() string { return e.name }

// Description returns the one-line description -list prints.
func (e Experiment) Description() string { return e.desc }

// Run executes the driver against s and returns its structured
// rows/series (the Result artifact payload).
func (e Experiment) Run(ctx context.Context, s *Suite) (any, error) { return e.run(ctx, s) }

// registry holds every experiment in evaluation order (the order the
// paper's figures are discussed and cmd/hipstr-bench runs them).
var registry []Experiment

// register appends a driver to the run order at init.
func register(name, desc string, run func(ctx context.Context, s *Suite) (any, error)) {
	registry = append(registry, Experiment{name: name, desc: desc, run: run})
}

// All returns the registered experiments in run order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByName resolves one registered experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name() == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Select resolves a comma-separated name list (empty selects everything),
// preserving registry order.
func Select(names string) ([]Experiment, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, ok := ByName(n); !ok {
			known := make([]string, len(registry))
			for i, e := range registry {
				known[i] = e.Name()
			}
			sort.Strings(known)
			return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
				n, strings.Join(known, ", "))
		}
		want[n] = true
	}
	var out []Experiment
	for _, e := range registry {
		if want[e.Name()] {
			out = append(out, e)
		}
	}
	return out, nil
}

func init() {
	register("fig3", "Figure 3: classic ROP attack surface (obfuscated vs unobfuscated)",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig3(ctx) })
	register("fig4", "Figure 4: brute force attack surface (eliminated vs surviving)",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig4(ctx) })
	register("table2", "Table 2: Algorithm 1 brute-force simulation",
		func(ctx context.Context, s *Suite) (any, error) { return s.Table2(ctx) })
	register("fig5", "Figure 5: JIT-ROP attack surface on PSR and HIPStR",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig5(ctx) })
	register("fig6", "Figure 6: percentage of migration-safe basic blocks",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig6(ctx) })
	register("fig7", "Figure 7: entropy comparison across techniques",
		func(ctx context.Context, s *Suite) (any, error) {
			bits, err := s.psrEntropyBits(ctx)
			if err != nil {
				return nil, err
			}
			return s.Fig7(bits), nil
		})
	register("fig8", "Figure 8: tailored-attack surface vs diversification probability",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig8(ctx) })
	register("fig9", "Figure 9: performance at PSR optimization levels",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig9(ctx) })
	register("fig10", "Figure 10: effect of additional stack memory",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig10(ctx) })
	register("fig11", "Figure 11: effect of RAT size on performance",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig11(ctx) })
	register("fig12", "Figure 12: migration overhead in microseconds",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig12(ctx) })
	register("fig13", "Figure 13: effect of code cache size on security migrations",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig13(ctx) })
	register("fig14", "Figure 14: performance comparison with Isomeron",
		func(ctx context.Context, s *Suite) (any, error) { return s.Fig14(ctx) })
	register("httpd", "§7.1 network-daemon (httpd) case study",
		func(ctx context.Context, s *Suite) (any, error) { return s.HTTPD(ctx) })
}
