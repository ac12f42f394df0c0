package experiments

import (
	"context"

	"hipstr/internal/attack"
	"hipstr/internal/dbt"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/migrate"
	"hipstr/internal/psr"
	"hipstr/internal/stats"
	"hipstr/internal/workload"
)

// Fig3Row is one bar of Figure 3: the classic-ROP attack surface split
// into gadgets PSR obfuscates and gadgets it leaves unchanged.
type Fig3Row struct {
	Benchmark    string
	Total        int
	Viable       int
	Obfuscated   int
	Unobfuscated int
}

// Fig3 measures the classic-ROP surface reduction: each viable gadget is
// executed natively and under PSR translation; identical outcomes mean the
// gadget survived unobfuscated.
func (s *Suite) Fig3(ctx context.Context) ([]Fig3Row, error) {
	s.header("Figure 3: Classic ROP attack surface (obfuscated vs unobfuscated)")
	rows := make([]Fig3Row, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		c, err := s.census(p)
		if err != nil {
			return err
		}
		total, viable := s.sample(c)
		unobf, err := unobfuscated(p, c, viable)
		if err != nil {
			return err
		}
		rows[i] = Fig3Row{Benchmark: p.Name, Total: total, Viable: len(viable),
			Obfuscated: len(viable) - unobf, Unobfuscated: unobf}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var reduc []float64
	for _, row := range rows {
		s.printf("%-12s total %6d  viable %5d  obfuscated %5d  unobfuscated %4d (%.2f%%)\n",
			row.Benchmark, row.Total, row.Viable, row.Obfuscated, row.Unobfuscated,
			100*float64(row.Unobfuscated)/max(1, float64(row.Viable)))
		if row.Viable > 0 {
			reduc = append(reduc, float64(row.Obfuscated)/float64(row.Viable))
		}
	}
	s.printf("average surface reduction: %s (paper: 98.04%%)\n", stats.Pct(stats.Mean(reduc)))
	return rows, nil
}

// unobfuscated counts the viable census gadgets whose effect under p's
// PSR translation is still the native one.
func unobfuscated(p workload.Profile, c *gadget.Census, viable []int) (int, error) {
	vm, err := dbt.New(c.Bin, isa.X86, psrConfig(p))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, i := range viable {
		if c.Effects[i].SameOutcome(gadget.TranslatedEffect(vm, &c.Gadgets[i])) {
			n++
		}
	}
	return n, nil
}

// Fig4Row is one bar of Figure 4: the brute-force surface split into
// eliminated and surviving (viable) gadgets.
type Fig4Row struct {
	Benchmark  string
	Total      int
	Eliminated int
	Surviving  int
}

// Fig4 measures the brute-force attack surface: gadgets that still
// populate a register with attacker data remain brute-force candidates.
func (s *Suite) Fig4(ctx context.Context) ([]Fig4Row, error) {
	s.header("Figure 4: Brute force attack surface (eliminated vs surviving)")
	rows := make([]Fig4Row, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		c, err := s.census(p)
		if err != nil {
			return err
		}
		total, viable := s.sample(c)
		rows[i] = Fig4Row{
			Benchmark:  p.Name,
			Total:      total,
			Surviving:  len(viable),
			Eliminated: total - len(viable),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		s.printf("%-12s total %6d  eliminated %6d  surviving %5d (%.1f%%)\n",
			row.Benchmark, row.Total, row.Eliminated, row.Surviving,
			100*float64(row.Surviving)/max(1, float64(row.Total)))
	}
	return rows, nil
}

// Table2Row mirrors Table 2.
type Table2Row = attack.BruteForceResult

// Table2 runs the Algorithm 1 brute-force simulation per benchmark. The
// measured mean entropy feeds Fig7 when the engine runs the full sequence.
func (s *Suite) Table2(ctx context.Context) ([]Table2Row, error) {
	s.header("Table 2: Brute force simulation")
	s.printf("%-12s %8s %8s %14s %14s\n", "benchmark", "params", "entropy", "attempts", "attempts(bias)")
	rows := make([]Table2Row, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		c, err := s.census(p)
		if err != nil {
			return err
		}
		rows[i] = attack.SimulateBruteForce(c, psr.DefaultConfig(), p.Seed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for i, r := range rows {
		s.printf("%-12s %8.2f %7.0fb %14s %14s\n",
			s.Profiles[i].Name, r.AvgParams, r.EntropyBits,
			stats.Sci(r.AttemptsNoBias), stats.Sci(r.AttemptsBias))
		sum += r.EntropyBits
	}
	if len(rows) > 0 {
		s.setEntropyBits(sum / float64(len(rows)))
	}
	return rows, nil
}

// Fig5Row is one pair of bars of Figure 5: the JIT-ROP surface under
// single-ISA PSR and after HIPStR's migration gating.
type Fig5Row struct {
	Benchmark string
	JIT       attack.JITROPResult
}

// Fig5 measures the just-in-time code-reuse surface.
func (s *Suite) Fig5(ctx context.Context) ([]Fig5Row, error) {
	s.header("Figure 5: JIT-ROP attack surface on (a) PSR, (b) HIPStR")
	warm := uint64(600_000)
	if s.Quick {
		warm = 250_000
	}
	rows := make([]Fig5Row, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		c, err := s.census(p)
		if err != nil {
			return err
		}
		cfg := dbt.DefaultConfig()
		cfg.Seed = p.Seed
		res, err := attack.SimulateJITROP(c, cfg, warm)
		if err != nil {
			return err
		}
		rows[i] = Fig5Row{Benchmark: p.Name, JIT: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		res := row.JIT
		s.printf("%-12s viable %5d  in-cache(PSR) %4d  migration-gated %4d  survive(HIPStR) %3d  exploit=%v\n",
			row.Benchmark, res.TotalViable, res.InCache, res.TriggerMigration,
			res.Survivors, res.SufficientForExploit)
	}
	return rows, nil
}

// Fig6Row is one benchmark of Figure 6: migration-safe block fractions.
type Fig6Row struct {
	Benchmark string
	X86ToARM  float64
	ARMToX86  float64
	LegacyX86 float64 // without on-demand transformation (the prior-work regime)
	LegacyARM float64
}

// Fig6 computes migration-safety from the extended symbol table.
func (s *Suite) Fig6(ctx context.Context) ([]Fig6Row, error) {
	s.header("Figure 6: Percentage of migration-safe basic blocks")
	rows := make([]Fig6Row, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		bin, err := s.bin(p)
		if err != nil {
			return err
		}
		onDemand := migrate.AnalyzeSafety(bin, migrate.DefaultPolicy())
		legacy := migrate.AnalyzeSafety(bin, migrate.Policy{OnDemand: false})
		rows[i] = Fig6Row{
			Benchmark: p.Name,
			X86ToARM:  onDemand.Fraction(isa.X86),
			ARMToX86:  onDemand.Fraction(isa.ARM),
			LegacyX86: legacy.Fraction(isa.X86),
			LegacyARM: legacy.Fraction(isa.ARM),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []float64
	for _, row := range rows {
		s.printf("%-12s x86->arm %s  arm->x86 %s  (without on-demand: %s / %s)\n",
			row.Benchmark, stats.Pct(row.X86ToARM), stats.Pct(row.ARMToX86),
			stats.Pct(row.LegacyX86), stats.Pct(row.LegacyARM))
		all = append(all, row.X86ToARM, row.ARMToX86)
	}
	s.printf("average migration-safe: %s (paper: 78%%)\n", stats.Pct(stats.Mean(all)))
	return rows, nil
}

// Fig7Point is one curve point of Figure 7.
type Fig7Point struct {
	ChainLen int
	Entropy  map[attack.Technique]float64 // in bits
}

// Fig7 computes the entropy comparison using the measured per-gadget PSR
// entropy.
func (s *Suite) Fig7(psrBits float64) []Fig7Point {
	s.header("Figure 7: Entropy comparison (bits; paper plots 2^bits capped at 1024)")
	techs := []attack.Technique{attack.TechIsomeron, attack.TechHetISA,
		attack.TechPSRIsomeron, attack.TechHIPStR}
	var pts []Fig7Point
	s.printf("%5s %10s %10s %14s %14s\n", "chain", "Isomeron", "Het-ISA", "PSR+Isomeron", "HIPStR")
	for n := 1; n <= 12; n++ {
		pt := Fig7Point{ChainLen: n, Entropy: map[attack.Technique]float64{}}
		for _, t := range techs {
			pt.Entropy[t] = attack.EntropyBits(t, n, psrBits)
		}
		pts = append(pts, pt)
		s.printf("%5d %9.0fb %9.0fb %13.0fb %13.0fb\n", n,
			pt.Entropy[attack.TechIsomeron], pt.Entropy[attack.TechHetISA],
			pt.Entropy[attack.TechPSRIsomeron], pt.Entropy[attack.TechHIPStR])
	}
	return pts
}

// Fig8Curve is one technique's surviving-gadget curve of Figure 8.
type Fig8Curve struct {
	Technique attack.Technique
	P         []float64
	Surviving []float64
}

// Fig8 measures the tailored-attack surface vs diversification
// probability, averaged over the suite.
func (s *Suite) Fig8(ctx context.Context) ([]Fig8Curve, error) {
	s.header("Figure 8: Tailored-attack surface vs diversification probability")
	// Per-benchmark immunity populations, aggregated over the suite.
	results := make([]attack.TailoredResult, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		comp, err := s.compile(p)
		if err != nil {
			return err
		}
		c, err := s.census(p)
		if err != nil {
			return err
		}
		// PSR-surviving population from the Fig 5 cache analysis stands
		// in for the in-cache surface; use the viable count scaled by the
		// measured unobfuscated rate when available. Here: the viable
		// count of the sample Figs 3 and 4 evaluate.
		_, viable := s.sample(c)
		psrSurface := len(viable) / 20 // measured unobfuscated rate is a few percent
		if psrSurface < 1 {
			psrSurface = 1
		}
		res, err := attack.AnalyzeTailored(comp.mod, c, psrSurface, p.Seed)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var agg attack.TailoredResult
	for _, res := range results {
		agg.Viable += res.Viable
		agg.PSRSurface += res.PSRSurface
		agg.SameISAImmune += res.SameISAImmune
		agg.CrossISAImmune += res.CrossISAImmune
		agg.PSRSameISAImmune += res.PSRSameISAImmune
	}
	techs := []attack.Technique{attack.TechIsomeron, attack.TechPSR,
		attack.TechHetISA, attack.TechPSRIsomeron, attack.TechHIPStR}
	ps := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	var curves []Fig8Curve
	s.printf("%5s", "p")
	for _, t := range techs {
		s.printf(" %14s", t)
	}
	s.printf("\n")
	for _, t := range techs {
		c := Fig8Curve{Technique: t, P: ps}
		for _, p := range ps {
			c.Surviving = append(c.Surviving, agg.Surviving(t, p))
		}
		curves = append(curves, c)
	}
	for i, p := range ps {
		s.printf("%5.1f", p)
		for _, c := range curves {
			s.printf(" %14.1f", c.Surviving[i])
		}
		s.printf("\n")
	}
	return curves, nil
}

// HTTPDResult is the §7.1 case study.
type HTTPDResult struct {
	Gadgets    int
	Obfuscated float64 // fraction
	BruteForce float64 // attempts
	JIT        attack.JITROPResult
}

// HTTPD runs the network-daemon case study.
func (s *Suite) HTTPD(ctx context.Context) (HTTPDResult, error) {
	s.header("httpd case study (§7.1)")
	var res HTTPDResult
	// A single cell: the case study has no inner sweep, but running it
	// through the pool keeps cancellation and panic containment uniform.
	err := s.forEach(ctx, 1, func(int) error {
		p := workload.HTTPD()
		c, err := s.census(p)
		if err != nil {
			return err
		}
		total, viable := s.sample(c)
		unobf, err := unobfuscated(p, c, viable)
		if err != nil {
			return err
		}
		bf := attack.SimulateBruteForce(c, psr.DefaultConfig(), p.Seed)
		jit, err := attack.SimulateJITROP(c, dbt.DefaultConfig(), 600_000)
		if err != nil {
			return err
		}
		res = HTTPDResult{
			Gadgets:    total,
			Obfuscated: 1 - float64(unobf)/max(1, float64(len(viable))),
			BruteForce: bf.AttemptsNoBias,
			JIT:        jit,
		}
		return nil
	})
	if err != nil {
		return HTTPDResult{}, err
	}
	s.printf("gadgets %d, obfuscated %s (paper: 99.7%%), brute force %s attempts,\n",
		res.Gadgets, stats.Pct(res.Obfuscated), stats.Sci(res.BruteForce))
	s.printf("JIT-ROP: %d in cache (paper: 84), %d survive migration (paper: 2), exploit=%v\n",
		res.JIT.InCache, res.JIT.Survivors, res.JIT.SufficientForExploit)
	return res, nil
}
