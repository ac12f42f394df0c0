package experiments

import (
	"context"

	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/isa"
	"hipstr/internal/isomeron"
	"hipstr/internal/migrate"
	"hipstr/internal/perf"
	"hipstr/internal/stats"
	"hipstr/internal/workload"
)

// measurement window (progress-write boundaries).
func (s *Suite) window() (warm, measure int) {
	if s.Quick {
		return 1, 1
	}
	return 1, 2
}

// runKey identifies one window simulation. dbt.Config is compared whole,
// so a field added to it later joins the key by itself (and a field that
// is not comparable fails to compile).
type runKey struct {
	profile    string
	k          isa.Kind
	native     bool
	cfg        dbt.Config
	warm, meas int
}

// windowRun is what a window simulation leaves behind: numbers only,
// never the VM.
type windowRun struct {
	m perf.Measurement
	// stats are the VM's whole-run counters, window its counters over the
	// measured window only (zero for native runs).
	stats, window dbt.Stats
	// ratLookups and ratMisses count ISA k's return address table.
	ratLookups, ratMisses uint64
}

// run measures p on ISA k over the suite's window, natively when cfg is
// nil and under a PSR VM with *cfg otherwise. Each distinct simulation
// runs once per Suite.
func (s *Suite) run(p workload.Profile, k isa.Kind, cfg *dbt.Config) (windowRun, error) {
	warm, meas := s.window()
	key := runKey{profile: p.Name, k: k, native: cfg == nil, warm: warm, meas: meas}
	if cfg != nil {
		key.cfg = *cfg
	}
	return s.runs.get(key, func() (windowRun, error) {
		bin, err := s.bin(p)
		if err != nil {
			return windowRun{}, err
		}
		if key.native {
			m, err := perf.MeasureNative(bin, k, warm, meas)
			return windowRun{m: m}, err
		}
		m, window, vm, err := perf.MeasureVMStats(bin, k, key.cfg, warm, meas)
		if err != nil {
			return windowRun{}, err
		}
		rat := vm.RATOf(k)
		return windowRun{m: m, stats: vm.Stats, window: window,
			ratLookups: rat.Lookups, ratMisses: rat.Misses}, nil
	})
}

// psrConfig is the suite's PSR baseline for p: the paper's default
// configuration, seeded per benchmark, with migration off.
func psrConfig(p workload.Profile) dbt.Config {
	cfg := dbt.DefaultConfig()
	cfg.Seed = p.Seed
	cfg.MigrateProb = 0
	return cfg
}

// forEachProfile fans one cell per benchmark out on the worker pool.
func (s *Suite) forEachProfile(ctx context.Context, fn func(i int, p workload.Profile) error) error {
	return s.forEach(ctx, len(s.Profiles), func(i int) error {
		return fn(i, s.Profiles[i])
	})
}

// Fig9Row is one benchmark of Figure 9: relative performance at each PSR
// optimization level (1.0 = native).
type Fig9Row struct {
	Benchmark  string
	O1, O2, O3 float64
	NativeCPI  float64
}

// Fig9 measures steady-state performance at each optimization level.
func (s *Suite) Fig9(ctx context.Context) ([]Fig9Row, error) {
	s.header("Figure 9: Performance at PSR optimization levels (relative to native)")
	rows := make([]Fig9Row, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		native, err := s.run(p, isa.X86, nil)
		if err != nil {
			return err
		}
		row := Fig9Row{Benchmark: p.Name, NativeCPI: native.m.CPI}
		for _, o := range []dbt.OptLevel{dbt.O1, dbt.O2, dbt.O3} {
			cfg := psrConfig(p)
			cfg.Opt = o
			r, err := s.run(p, isa.X86, &cfg)
			if err != nil {
				return err
			}
			rel := perf.Relative(native.m, r.m)
			switch o {
			case dbt.O1:
				row.O1 = rel
			case dbt.O2:
				row.O2 = rel
			case dbt.O3:
				row.O3 = rel
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	var o3 []float64
	for _, row := range rows {
		s.printf("%-12s O1 %s  O2 %s  O3 %s\n", row.Benchmark,
			stats.Pct(row.O1), stats.Pct(row.O2), stats.Pct(row.O3))
		o3 = append(o3, row.O3)
	}
	s.printf("average PSR-O3: %s of native (paper: 86.9%%)\n", stats.Pct(stats.Mean(o3)))
	return rows, nil
}

// Fig10Row is one benchmark of Figure 10: relative performance at each
// stack-randomization size.
type Fig10Row struct {
	Benchmark         string
	S8, S16, S32, S64 float64
}

// Fig10 sweeps the frame randomization space (S8..S64 KiB).
func (s *Suite) Fig10(ctx context.Context) ([]Fig10Row, error) {
	s.header("Figure 10: Effect of additional stack memory (relative to native)")
	sizes := []int{2, 4, 8, 16} // pages: 8,16,32,64 KiB
	rows := make([]Fig10Row, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		native, err := s.run(p, isa.X86, nil)
		if err != nil {
			return err
		}
		row := Fig10Row{Benchmark: p.Name}
		for si, pages := range sizes {
			cfg := psrConfig(p)
			cfg.RandPages = pages
			r, err := s.run(p, isa.X86, &cfg)
			if err != nil {
				return err
			}
			rel := perf.Relative(native.m, r.m)
			switch si {
			case 0:
				row.S8 = rel
			case 1:
				row.S16 = rel
			case 2:
				row.S32 = rel
			case 3:
				row.S64 = rel
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		s.printf("%-12s S8 %s  S16 %s  S32 %s  S64 %s\n", row.Benchmark,
			stats.Pct(row.S8), stats.Pct(row.S16), stats.Pct(row.S32), stats.Pct(row.S64))
	}
	return rows, nil
}

// Fig11Point is one RAT size of Figure 11 (suite-average overhead vs the
// largest RAT).
type Fig11Point struct {
	RATSize  int
	Overhead float64 // fractional cycles overhead vs the 2048-entry RAT
	MissRate float64
}

// Fig11 sweeps the hardware return address table size.
func (s *Suite) Fig11(ctx context.Context) ([]Fig11Point, error) {
	s.header("Figure 11: Effect of RAT size on performance")
	sizes := []int{32, 64, 128, 256, 512, 1024, 2048}
	if s.Quick {
		sizes = []int{32, 256, 2048}
	}
	// One cell per (RAT size, benchmark) pair.
	type cell struct {
		cycles   float64
		missRate float64
		hasMiss  bool
	}
	np := len(s.Profiles)
	cells := make([]cell, len(sizes)*np)
	err := s.forEach(ctx, len(cells), func(ci int) error {
		size, p := sizes[ci/np], s.Profiles[ci%np]
		cfg := psrConfig(p)
		cfg.RATSize = size
		r, err := s.run(p, isa.X86, &cfg)
		if err != nil {
			return err
		}
		c := cell{cycles: r.m.Cycles}
		if r.ratLookups > 0 {
			c.missRate = float64(r.ratMisses) / float64(r.ratLookups)
			c.hasMiss = true
		}
		cells[ci] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pts []Fig11Point
	for si, size := range sizes {
		var overheads, missRates []float64
		for pi := range s.Profiles {
			c := cells[si*np+pi]
			overheads = append(overheads, c.cycles)
			if c.hasMiss {
				missRates = append(missRates, c.missRate)
			}
		}
		pts = append(pts, Fig11Point{RATSize: size,
			Overhead: stats.Mean(overheads), MissRate: stats.Mean(missRates)})
	}
	// Normalize against the largest RAT.
	ref := pts[len(pts)-1].Overhead
	for i := range pts {
		pts[i].Overhead = pts[i].Overhead/ref - 1
		s.printf("RAT %5d: overhead %s, miss rate %.4f%%\n",
			pts[i].RATSize, stats.Pct(pts[i].Overhead), 100*pts[i].MissRate)
	}
	return pts, nil
}

// Fig12Row is one benchmark of Figure 12: migration overhead in
// microseconds, both directions, averaged over random checkpoints.
type Fig12Row struct {
	Benchmark string
	ToX86us   float64 // ARM -> x86
	ToARMus   float64 // x86 -> ARM
}

// Fig12 forces migrations at random checkpoints and reports the modeled
// state-transformation cost.
func (s *Suite) Fig12(ctx context.Context) ([]Fig12Row, error) {
	s.header("Figure 12: Migration overhead (microseconds)")
	checkpoints := 10
	if s.Quick {
		checkpoints = 4
	}
	// One cell per (benchmark, checkpoint) pair; each boots a private
	// System, so cells only share the read-only binary.
	type cell struct {
		toARM, toX86 float64
		hasARM       bool
		hasX86       bool
	}
	cells := make([]cell, len(s.Profiles)*checkpoints)
	// runToMigration advances in small slices until a migration lands
	// (or the program ends).
	runToMigration := func(sys *core.System) (bool, error) {
		before := sys.Engine.Stats.Migrations
		for i := 0; i < 400; i++ {
			if sys.Exited() {
				return false, nil
			}
			if _, err := sys.Run(5_000); err != nil {
				return false, err
			}
			if sys.Engine.Stats.Migrations > before {
				return true, nil
			}
		}
		return false, nil
	}
	err := s.forEach(ctx, len(cells), func(ci int) error {
		p, c := s.Profiles[ci/checkpoints], ci%checkpoints
		bin, err := s.bin(p)
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig()
		cfg.DBT.Seed = p.Seed + int64(c)
		cfg.DBT.MigrateProb = 0 // only forced migrations
		sys, err := core.New(bin, cfg)
		if err != nil {
			return err
		}
		// Random checkpoint: run a varying slice, then force.
		if _, err := sys.Run(uint64(3_000 + 7_000*c)); err != nil {
			return err
		}
		eng := sys.Engine
		// x86 -> ARM.
		sys.RequestPhaseMigration()
		ok, err := runToMigration(sys)
		if err != nil {
			return err
		}
		if ok && sys.Active() == isa.ARM {
			cells[ci].toARM = eng.Stats.LastCostMicros
			cells[ci].hasARM = true
			// ARM -> x86.
			sys.RequestPhaseMigration()
			ok, err = runToMigration(sys)
			if err != nil {
				return err
			}
			if ok && sys.Active() == isa.X86 {
				cells[ci].toX86 = eng.Stats.LastCostMicros
				cells[ci].hasX86 = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for pi, p := range s.Profiles {
		var toARM, toX86 []float64
		for c := 0; c < checkpoints; c++ {
			cl := cells[pi*checkpoints+c]
			if cl.hasARM {
				toARM = append(toARM, cl.toARM)
			}
			if cl.hasX86 {
				toX86 = append(toX86, cl.toX86)
			}
		}
		row := Fig12Row{Benchmark: p.Name,
			ToARMus: stats.Mean(toARM), ToX86us: stats.Mean(toX86)}
		rows = append(rows, row)
		s.printf("%-12s arm->x86 %7.0fus  x86->arm %7.0fus\n", p.Name, row.ToX86us, row.ToARMus)
	}
	var a, b []float64
	for _, r := range rows {
		if r.ToX86us > 0 {
			a = append(a, r.ToX86us)
		}
		if r.ToARMus > 0 {
			b = append(b, r.ToARMus)
		}
	}
	s.printf("average: arm->x86 %.0fus (paper: 909us), x86->arm %.0fus (paper: 1287us)\n",
		stats.Mean(a), stats.Mean(b))
	return rows, nil
}

// Fig13Point is one cache size of Figure 13: indirect-transfer code-cache
// misses (security events) observed in a fixed work window.
type Fig13Point struct {
	CacheKB        int
	SecurityEvents uint64
	Flushes        uint64
	OverheadPct    float64
}

// Fig13 sweeps the code cache size.
func (s *Suite) Fig13(ctx context.Context) ([]Fig13Point, error) {
	s.header("Figure 13: Effect of code cache size on security migrations")
	sizes := []int{16, 32, 64, 128, 256, 768, 1536}
	if s.Quick {
		sizes = []int{16, 64, 1536}
	}
	type cell struct {
		events, flushes uint64
		cycles          float64
	}
	np := len(s.Profiles)
	cells := make([]cell, len(sizes)*np)
	err := s.forEach(ctx, len(cells), func(ci int) error {
		kb, p := sizes[ci/np], s.Profiles[ci%np]
		cfg := psrConfig(p)
		cfg.CodeCacheSize = uint32(kb) * 1024
		r, err := s.run(p, isa.X86, &cfg)
		if err != nil {
			return err
		}
		cells[ci] = cell{
			events:  r.stats.CodeCacheMisses,
			flushes: r.stats.Flushes,
			cycles:  r.m.Cycles,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pts []Fig13Point
	var refCycles float64
	for si := len(sizes) - 1; si >= 0; si-- {
		var events, flushes uint64
		var cycles []float64
		for pi := range s.Profiles {
			c := cells[si*np+pi]
			events += c.events
			flushes += c.flushes
			cycles = append(cycles, c.cycles)
		}
		pt := Fig13Point{CacheKB: sizes[si], SecurityEvents: events, Flushes: flushes}
		c := stats.Mean(cycles)
		if si == len(sizes)-1 {
			refCycles = c
		}
		if refCycles > 0 {
			pt.OverheadPct = c/refCycles - 1
		}
		pts = append([]Fig13Point{pt}, pts...)
	}
	for _, pt := range pts {
		s.printf("cache %5dKB: security events %4d, flushes %3d, overhead %s\n",
			pt.CacheKB, pt.SecurityEvents, pt.Flushes, stats.Pct(pt.OverheadPct))
	}
	return pts, nil
}

// Fig14Curve is one system's relative performance over diversification
// probability (Figure 14).
type Fig14Curve struct {
	System   string
	P        []float64
	Relative []float64
}

// Fig14 compares HIPStR (two cache sizes) against Isomeron and
// PSR+Isomeron.
func (s *Suite) Fig14(ctx context.Context) ([]Fig14Curve, error) {
	s.header("Figure 14: Performance comparison with Isomeron (relative to native)")
	ps := []float64{0, 0.25, 0.5, 0.75, 1.0}
	if s.Quick {
		ps = []float64{0, 0.5, 1.0}
	}
	systems := []string{"Isomeron", "PSR+Isomeron", "HIPStR-256KB", "HIPStR-2MB"}
	curves := make([]Fig14Curve, len(systems))
	for i, name := range systems {
		curves[i] = Fig14Curve{System: name, P: ps}
	}
	// One cell per benchmark fetches its window runs. None of them
	// depends on the diversification probability, which is applied to
	// their numbers afterwards.
	type cell struct {
		native, psr windowRun
		hip         [2]windowRun // 256 KB and 2 MB code caches
	}
	cacheKBs := [2]int{256, 2048}
	cells := make([]cell, len(s.Profiles))
	err := s.forEachProfile(ctx, func(i int, p workload.Profile) error {
		var r cell
		var err error
		if r.native, err = s.run(p, isa.X86, nil); err != nil {
			return err
		}
		psrCfg := psrConfig(p)
		if r.psr, err = s.run(p, isa.X86, &psrCfg); err != nil {
			return err
		}
		// HIPStR runs measure security events with migration off; the
		// migrations are modeled below.
		for ci, kb := range cacheKBs {
			cfg := psrConfig(p)
			cfg.CodeCacheSize = uint32(kb) * 1024
			if r.hip[ci], err = s.run(p, isa.X86, &cfg); err != nil {
				return err
			}
		}
		cells[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	coreCfg := perf.CoreFor(isa.X86)
	migCycles := migrate.CostMicros(isa.ARM, 4, 120) * coreCfg.FreqGHz * 1e3
	for _, pv := range ps {
		isoCfg := isomeron.DefaultConfig()
		isoCfg.DiversifyProb = pv
		var iso, combo []float64
		var hip [2][]float64
		for _, r := range cells {
			native := r.native.m
			// Isomeron: modeled from the native run's call structure.
			iso = append(iso, isoCfg.Apply(native).Relative)
			// PSR+Isomeron: PSR measured, Isomeron shepherding on top.
			combo = append(combo, isoCfg.CombineWithPSR(native, r.psr.m).Relative)
			// HIPStR: PSR plus probabilistic migration on steady-state
			// security events. Warm caches make those events rare, so
			// raising the diversification probability costs almost
			// nothing — the paper's core performance argument. The
			// event rate is measured over the steady-state window and
			// each event charged the modeled migration cost.
			for ci, h := range r.hip {
				extra := pv * float64(h.window.CodeCacheMisses) * migCycles
				hip[ci] = append(hip[ci], native.Cycles/(h.m.Cycles+extra))
			}
		}
		curves[0].Relative = append(curves[0].Relative, stats.Mean(iso))
		curves[1].Relative = append(curves[1].Relative, stats.Mean(combo))
		curves[2].Relative = append(curves[2].Relative, stats.Mean(hip[0]))
		curves[3].Relative = append(curves[3].Relative, stats.Mean(hip[1]))
	}
	s.printf("%5s", "p")
	for _, c := range curves {
		s.printf(" %13s", c.System)
	}
	s.printf("\n")
	for i, pv := range ps {
		s.printf("%5.2f", pv)
		for _, c := range curves {
			s.printf(" %13s", stats.Pct(c.Relative[i]))
		}
		s.printf("\n")
	}
	// Headline: HIPStR vs Isomeron at full diversification.
	last := len(ps) - 1
	s.printf("HIPStR(2MB) vs Isomeron at p=1: +%s (paper: +15.6%%)\n",
		stats.Pct(curves[3].Relative[last]/curves[0].Relative[last]-1))
	return curves, nil
}
