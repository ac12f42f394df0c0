// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablations for the design decisions DESIGN.md
// calls out. Each benchmark runs the corresponding experiment driver on
// the quick suite and reports its headline number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. cmd/hipstr-bench runs the full-size suite.
package hipstr_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"hipstr"
	"hipstr/internal/attack"
	"hipstr/internal/dbt"
	"hipstr/internal/fleet"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/migrate"
	"hipstr/internal/perf"
	"hipstr/internal/psr"
	"hipstr/internal/stats"
	"hipstr/internal/workload"
)

var ctx = context.Background()

func quickSuite() *hipstr.ExperimentSuite {
	return hipstr.NewQuickExperiments(io.Discard)
}

// freshSuite gives one benchmark iteration a quick Suite of its own,
// compiled through Fig6 as the paper-suite benchmark's set-up does, with
// the timer stopped. A Suite computes each simulation once, so iterations
// on a shared Suite would time only memo hits after the first.
func freshSuite(b *testing.B) *hipstr.ExperimentSuite {
	b.StopTimer()
	s := quickSuite()
	if _, err := s.Fig6(ctx); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	return s
}

func BenchmarkFig3ClassicROPSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		rows, err := s.Fig3(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var reduc []float64
		for _, r := range rows {
			if r.Viable > 0 {
				reduc = append(reduc, float64(r.Obfuscated)/float64(r.Viable))
			}
		}
		b.ReportMetric(100*stats.Mean(reduc), "%obfuscated")
	}
}

func BenchmarkFig4BruteForceSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		rows, err := s.Fig4(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var surv []float64
		for _, r := range rows {
			surv = append(surv, float64(r.Surviving)/float64(r.Total))
		}
		b.ReportMetric(100*stats.Mean(surv), "%surviving")
	}
}

func BenchmarkTable2BruteForce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		rows, err := s.Table2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var bits []float64
		for _, r := range rows {
			bits = append(bits, r.EntropyBits)
		}
		b.ReportMetric(stats.Mean(bits), "entropy-bits")
	}
}

func BenchmarkFig5JITROPSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		rows, err := s.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		survivors := 0
		for _, r := range rows {
			survivors += r.JIT.Survivors
		}
		b.ReportMetric(float64(survivors), "survivors")
	}
}

func BenchmarkFig6MigrationSafety(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var f []float64
		for _, r := range rows {
			f = append(f, r.X86ToARM, r.ARMToX86)
		}
		b.ReportMetric(100*stats.Mean(f), "%safe")
	}
}

func BenchmarkFig7Entropy(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		pts := s.Fig7(33)
		b.ReportMetric(pts[7].Entropy[attack.TechHIPStR], "bits@chain8")
	}
}

func BenchmarkFig8Tailored(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		curves, err := s.Fig8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range curves {
			if c.Technique == attack.TechHIPStR {
				b.ReportMetric(c.Surviving[len(c.Surviving)-1], "survivors@p1")
			}
		}
	}
}

func BenchmarkFig9OptLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		rows, err := s.Fig9(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var o3 []float64
		for _, r := range rows {
			o3 = append(o3, r.O3)
		}
		b.ReportMetric(100*stats.Mean(o3), "%of-native@O3")
	}
}

func BenchmarkFig10StackEntropy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		rows, err := s.Fig10(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var drop []float64
		for _, r := range rows {
			drop = append(drop, r.S8-r.S64)
		}
		b.ReportMetric(100*stats.Mean(drop), "%drop-S8-to-S64")
	}
}

func BenchmarkFig11RATSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		pts, err := s.Fig11(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*pts[0].Overhead, "%overhead@RAT32")
	}
}

func BenchmarkFig12Migration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		rows, err := s.Fig12(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var toARM []float64
		for _, r := range rows {
			if r.ToARMus > 0 {
				toARM = append(toARM, r.ToARMus)
			}
		}
		b.ReportMetric(stats.Mean(toARM), "us-x86-to-arm")
	}
}

func BenchmarkFig13CodeCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		pts, err := s.Fig13(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[len(pts)-1].SecurityEvents), "events@largest")
	}
}

func BenchmarkFig14VsIsomeron(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		curves, err := s.Fig14(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var hip, iso float64
		for _, c := range curves {
			last := c.Relative[len(c.Relative)-1]
			switch c.System {
			case "HIPStR-2MB":
				hip = last
			case "Isomeron":
				iso = last
			}
		}
		b.ReportMetric(100*(hip/iso-1), "%faster-than-isomeron@p1")
	}
}

func BenchmarkHTTPDCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		res, err := s.HTTPD(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.JIT.Survivors), "jitrop-survivors")
	}
}

// --- Interpreter hot loop ------------------------------------------------

// interpLoop assembles a small self-contained spin loop (ALU, stack
// store/load, call/return, compare-and-branch) and boots a bare machine on
// it. The shape mirrors what every experiment cell spends its time on:
// short basic blocks re-executed millions of times.
func interpLoop(b *testing.B, k isa.Kind) *machine.Machine {
	const (
		textBase = 0x08048000
		stackTop = 0x00800000
	)
	a := isa.NewAsm(k, textBase)
	a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(0), Src: isa.I(0)})
	a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(1), Src: isa.I(0)})
	a.Label("loop")
	a.Emit(isa.Inst{Op: isa.OpAdd, Dst: isa.R(0), Src: isa.I(1)})
	a.StoreWord(0, isa.StackReg(k), 8, 2)
	a.LoadWord(2, isa.StackReg(k), 8, 3)
	a.Call("fn")
	a.Emit(isa.Inst{Op: isa.OpCmp, Dst: isa.R(0), Src: isa.R(1)})
	a.Jcc(isa.CondNE, "loop")
	a.Emit(isa.Inst{Op: isa.OpHlt})
	a.Label("fn")
	a.Emit(isa.Inst{Op: isa.OpAdd, Dst: isa.R(2), Src: isa.I(3)})
	if k == isa.X86 {
		a.Emit(isa.Inst{Op: isa.OpRet})
	} else {
		a.Emit(isa.Inst{Op: isa.OpBx, Dst: isa.R(isa.LR)})
	}
	code, _, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	ram := mem.New()
	ram.Map("text", textBase, uint32(len(code))+mem.PageSize, mem.PermRX)
	ram.WriteForce(textBase, code)
	ram.Map("stack", stackTop-0x10000, 0x10000, mem.PermRW)
	m := machine.New(k, ram)
	m.PC = textBase
	m.SetSP(stackTop - 32)
	return m
}

// BenchmarkInterpreterSteps measures the raw interpreter dispatch rate:
// ns/op is ns/step (each iteration executes exactly one instruction), and
// the steps/s metric is the headline simulation speed. The "observed"
// variants attach the cycle-approximate timing model, the configuration
// every perf experiment runs under.
func BenchmarkInterpreterSteps(b *testing.B) {
	for _, k := range isa.Kinds {
		run := func(name string, observed bool) {
			b.Run(name, func(b *testing.B) {
				m := interpLoop(b, k)
				if observed {
					perf.NewModel(perf.CoreFor(k)).Attach(m)
				}
				b.ReportAllocs()
				b.ResetTimer()
				n, err := m.Run(uint64(b.N))
				if err != nil {
					b.Fatal(err)
				}
				if n != uint64(b.N) {
					b.Fatalf("ran %d steps, want %d", n, b.N)
				}
				b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "steps/s")
			})
		}
		run(k.String(), false)
		run(k.String()+"-observed", true)
	}
}

// --- DBT translation churn -----------------------------------------------

// BenchmarkDBTSteps measures the end-to-end VM dispatch rate under
// sustained translation churn: a deliberately small code cache keeps the
// DBT in a flush → retranslate → chain-patch cycle for the whole run, so
// every translation commit and patch writes into execute-permission pages.
// This is the workload where whole-cache block invalidation is the
// bottleneck — each commit used to drop every predecoded block, including
// those for untouched code-cache regions; page-granular generations evict
// only blocks overlapping the written pages. ns/op is ns/step and steps/s
// is the headline throughput.
func BenchmarkDBTSteps(b *testing.B) {
	p, _ := workload.ProfileByName("httpd")
	bin, err := workload.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []uint32{16 << 10, 32 << 10, 2 << 20} {
		name := "churn-16k"
		if size == 32<<10 {
			name = "churn-32k"
		}
		if size == 2<<20 {
			name = "steady-2m"
		}
		b.Run(name, func(b *testing.B) {
			cfg := dbt.DefaultConfig()
			cfg.CodeCacheSize = size
			cfg.MigrateProb = 0
			vm, err := dbt.New(bin, isa.X86, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var ran uint64
			for ran < uint64(b.N) {
				n, err := vm.Run(uint64(b.N) - ran)
				if err != nil {
					b.Fatal(err)
				}
				ran += n
				if vm.P.Exited {
					b.StopTimer()
					if err := vm.Start(isa.X86); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				} else if n == 0 {
					b.Fatal("vm made no progress")
				}
			}
			b.ReportMetric(float64(ran)/b.Elapsed().Seconds(), "steps/s")
			bs := vm.P.M.BlockStats()
			b.ReportMetric(float64(bs.Invalidations), "invalidations")
			b.ReportMetric(bs.HitRatio(), "blk-hit")
		})
	}
}

// --- Spawn latency -------------------------------------------------------

// spawnSteps bounds the guest work per spawn: enough to touch the
// workload's hot working set (so cold spawns pay the translator for it)
// while keeping steady-state execution from drowning out the spawn cost
// being measured.
const spawnSteps = 1_000

// BenchmarkSpawn measures admitting one more guest of an already-running
// binary. cold boots from scratch with unit sharing disabled (load the
// image, translate the working set). warm-shared still boots from scratch
// but installs translations from a pre-populated content-addressed unit
// cache. warm-fork is the full fast path: fork a booted prototype's
// snapshot (memory aliased copy-on-write) and serve translations shared.
func BenchmarkSpawn(b *testing.B) {
	p, _ := workload.ProfileByName("httpd")
	bin, err := workload.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	base := dbt.DefaultConfig()
	base.MigrateProb = 0

	spawnRun := func(b *testing.B, vm *dbt.VM) {
		b.Helper()
		if _, err := vm.Run(spawnSteps); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold", func(b *testing.B) {
		cfg := base
		cfg.NoSharedUnits = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vm, err := dbt.New(bin, isa.X86, cfg)
			if err != nil {
				b.Fatal(err)
			}
			spawnRun(b, vm)
		}
	})

	b.Run("warm-shared", func(b *testing.B) {
		cfg := base
		cfg.SharedUnits = dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
		seed, err := dbt.New(bin, isa.X86, cfg)
		if err != nil {
			b.Fatal(err)
		}
		spawnRun(b, seed) // populate the unit cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm, err := dbt.New(bin, isa.X86, cfg)
			if err != nil {
				b.Fatal(err)
			}
			spawnRun(b, vm)
		}
	})

	b.Run("warm-fork", func(b *testing.B) {
		cfg := base
		cfg.SharedUnits = dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
		seed, err := dbt.New(bin, isa.X86, cfg)
		if err != nil {
			b.Fatal(err)
		}
		spawnRun(b, seed) // populate the unit cache
		proto, err := dbt.New(bin, isa.X86, cfg)
		if err != nil {
			b.Fatal(err)
		}
		snap := proto.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm, err := snap.Fork(dbt.ForkConfig{})
			if err != nil {
				b.Fatal(err)
			}
			spawnRun(b, vm)
		}
	})
}

// BenchmarkRespawn measures the kill+respawn breach response in isolation
// (no guest steps): cold-boot pays bin.Load — O(image) — per respawn,
// from-snapshot forks the prototype's pages copy-on-write and allocates
// only what the fresh boot state dirties.
func BenchmarkRespawn(b *testing.B) {
	p, _ := workload.ProfileByName("httpd")
	bin, err := workload.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	cfg.SharedUnits = dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)

	b.Run("cold-boot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dbt.New(bin, isa.X86, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("from-snapshot", func(b *testing.B) {
		proto, err := dbt.New(bin, isa.X86, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := proto.Run(spawnSteps); err != nil { // dirty some state
			b.Fatal(err)
		}
		snap := proto.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := snap.Respawn(isa.X86, 4242, dbt.ForkConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationRegCacheSize sweeps the global register cache size the
// paper fixes at 3 (§5.4).
func BenchmarkAblationRegCacheSize(b *testing.B) {
	p, _ := workload.ProfileByName("libquantum")
	bin, err := workload.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	native, err := perf.MeasureNative(bin, isa.X86, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, size := range []int{0, 3} {
			cfg := dbt.DefaultConfig()
			cfg.MigrateProb = 0
			if size == 0 {
				cfg.Opt = dbt.O1
			}
			m, _, err := perf.MeasureVM(bin, isa.X86, cfg, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if size == 0 {
				b.ReportMetric(100*perf.Relative(native, m), "%native-cache0")
			} else {
				b.ReportMetric(100*perf.Relative(native, m), "%native-cache3")
			}
		}
	}
}

// BenchmarkAblationDualTranslation measures the §3.5 optimization of
// translating each compulsory miss for both ISAs.
func BenchmarkAblationDualTranslation(b *testing.B) {
	p, _ := workload.ProfileByName("libquantum")
	bin, err := workload.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, dual := range []bool{false, true} {
			cfg := dbt.DefaultConfig()
			cfg.DualTranslate = dual
			cfg.MigrateProb = 0
			vm, err := dbt.New(bin, isa.X86, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := vm.Run(300_000); err != nil {
				b.Fatal(err)
			}
			warm := float64(vm.Cache(isa.ARM).NumUnits())
			if dual {
				b.ReportMetric(warm, "arm-units-dual")
			} else {
				b.ReportMetric(warm, "arm-units-single")
			}
		}
	}
}

// BenchmarkAblationRegisterBias isolates the O3 register-bias entropy/
// performance trade (§5.4).
func BenchmarkAblationRegisterBias(b *testing.B) {
	p, _ := workload.ProfileByName("libquantum")
	bin, err := workload.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, bias := range []bool{false, true} {
			cfg := psr.DefaultConfig()
			cfg.RegisterBias = bias
			res := attack.SimulateBruteForce(gadget.TakeCensus(bin, isa.X86), cfg, 1)
			if bias {
				b.ReportMetric(res.AttemptsBias, "attempts-bias")
			} else {
				b.ReportMetric(res.AttemptsNoBias, "attempts-nobias")
			}
		}
	}
}

// BenchmarkAblationOnDemandMigration contrasts the prior work's ~45%
// migration-safe regime with HIPStR's on-demand transformation (§5.2).
func BenchmarkAblationOnDemandMigration(b *testing.B) {
	p, _ := workload.ProfileByName("mcf")
	bin, err := workload.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		on := migrate.AnalyzeSafety(bin, migrate.DefaultPolicy())
		off := migrate.AnalyzeSafety(bin, migrate.Policy{OnDemand: false})
		b.ReportMetric(100*on.Fraction(isa.X86), "%safe-ondemand")
		b.ReportMetric(100*off.Fraction(isa.X86), "%safe-legacy")
	}
}

// BenchmarkFleet measures the multi-tenant host end to end: each
// iteration admits a batch of tenants into a fresh fleet, drains it, and
// reports requests/sec (tenants retired per second of wall time).
//
// single-worker vs workers-max carries the throughput-scaling story; the
// "max" side always names GOMAXPROCS workers so the recorded figure is
// stable across machines (on a single-core host the two coincide and
// the scaling ratio is trivially 1.0 — the multi-core claim must be
// read on a multi-core runner, as with the parallel engine benches).
//
// admit-warm vs admit-cold carries the PR 7 warm-spawn story at fleet
// scale: tiny step quotas make admission cost dominate, so warm forking
// from the prototype snapshot (CoW memory + shared unit cache) beats
// cold per-tenant boots by the snapshot/fork margins.
func BenchmarkFleet(b *testing.B) {
	drain := func(b *testing.B, cfg fleet.Config, wl string, guests int) {
		b.Helper()
		b.ReportAllocs()
		var retired, steps uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer() // compile + prototype boot are not admission
			h := fleet.NewHost(cfg)
			if err := h.AddWorkload(wl); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			h.Start(ctx)
			for g := 0; g < guests; g++ {
				if _, err := h.Admit(wl); err != nil {
					b.Fatal(err)
				}
			}
			h.Close()
			if err := h.Wait(); err != nil {
				b.Fatal(err)
			}
			agg := h.Aggregates()
			retired += agg.Completed + agg.Killed
			steps += agg.Steps
		}
		sec := b.Elapsed().Seconds()
		b.ReportMetric(float64(retired)/sec, "req/s")
		b.ReportMetric(float64(steps)/sec, "steps/s")
	}

	execCfg := func(workers int) fleet.Config {
		cfg := fleet.DefaultConfig()
		cfg.Workers = workers
		cfg.Policy.StepQuota = 50_000
		cfg.Policy.SliceSteps = 10_000
		cfg.Policy.WarmupSteps = 20_000
		return cfg
	}
	b.Run("single-worker", func(b *testing.B) {
		drain(b, execCfg(1), "libquantum", 32)
	})
	b.Run("workers-max", func(b *testing.B) {
		drain(b, execCfg(runtime.GOMAXPROCS(0)), "libquantum", 32)
	})

	admitCfg := func(cold bool) fleet.Config {
		cfg := fleet.DefaultConfig()
		cfg.ColdAdmission = cold
		cfg.Policy.StepQuota = 1_000
		cfg.Policy.SliceSteps = 1_000
		cfg.Policy.WarmupSteps = 50_000
		return cfg
	}
	b.Run("admit-warm", func(b *testing.B) {
		drain(b, admitCfg(false), "httpd", 64)
	})
	b.Run("admit-cold", func(b *testing.B) {
		drain(b, admitCfg(true), "httpd", 64)
	})
}
