package main

import (
	"fmt"
	"slices"
	"time"

	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/perf"
	"hipstr/internal/proc"
	"hipstr/internal/profiler"
	"hipstr/internal/workload"
)

// guestSet describes a set of guest jobs: every profile on both start
// ISAs, each under seedsPerJob PSR seeds drawn from the run seed, booted
// with core.New in HIPStR mode (migration probability 1) with the given
// per-ISA code cache.
type guestSet struct {
	profiles    []string
	cacheBytes  uint32
	seedsPerJob int
	// workIters overrides each profile's outer-loop count (0 keeps the
	// profile's own); the tests shrink jobs with it.
	workIters int
}

// observedSet is the configuration every performance figure runs under:
// the whole suite plus httpd, 2 MiB code caches.
var observedSet = guestSet{
	profiles:    append(workload.Names(), "httpd"),
	cacheBytes:  2 << 20,
	seedsPerJob: 1,
}

// churnSet runs the two code-heaviest profiles in Figure 13's smallest
// code cache, where translation, flushes and migration dominate. Three
// PSR seeds per job keep a round's work from hinging on one layout.
var churnSet = guestSet{
	profiles:    []string{"httpd", "gobmk"},
	cacheBytes:  16 << 10,
	seedsPerJob: 3,
}

// maxRedraws bounds how many PSR seeds the warm-up round tries per job.
const maxRedraws = 16

// guestJob is one (profile, start ISA, PSR seed) run to exit, with the
// native oracle it must reproduce.
type guestJob struct {
	name       string
	bin        *fatbin.Binary
	k          isa.Kind
	cacheBytes uint32
	seed       int64
	redraws    int
	limit      uint64         // step cap: a guest that runs past it has hung
	units      *dbt.UnitCache // translation cache (nil: the process-wide one)
	exit       uint32
	trace      []uint32
	ref        jobRun // the warm-up run every later run must equal
}

// jobRun is what one run of a job did: its work, its exact simulated
// counts, and the layer counters the traced run reports.
type jobRun struct {
	Steps  uint64  `json:"steps"`
	Instrs uint64  `json:"instrs"`
	Cycles float64 `json:"cycles"`

	translations, flushes, migrations     uint64
	sharedHits, sharedMisses              uint64
	batched, exact, bcHits, bcMisses, inv uint64
}

// sameWork reports whether two runs did bit-identical simulated work.
func (r jobRun) sameWork(o jobRun) bool {
	return r.Steps == o.Steps && r.Instrs == o.Instrs && r.Cycles == o.Cycles
}

// oracle is one native run: the exit code and SysWrite trace a protected
// run of the same binary and ISA must reproduce.
type oracle struct {
	bin   *fatbin.Binary
	k     isa.Kind
	exit  uint32
	trace []uint32
	steps uint64
}

// prepare compiles every profile of the set and runs each binary natively
// on both ISAs. It is the guest workloads' set-up; it touches no
// process-wide cache, so repeating it costs the same every time.
func (gs guestSet) prepare() ([]oracle, error) {
	var out []oracle
	for _, name := range gs.profiles {
		p, ok := workload.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", name)
		}
		if gs.workIters > 0 {
			p.WorkIters = gs.workIters
		}
		bin, err := workload.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		for _, k := range isa.Kinds {
			pr, err := proc.New(bin, k)
			if err != nil {
				return nil, fmt.Errorf("native %s/%s: %w", name, k, err)
			}
			if err := pr.RunToExit(500_000_000); err != nil {
				return nil, fmt.Errorf("native %s/%s: %w", name, k, err)
			}
			out = append(out, oracle{bin: bin, k: k, exit: pr.ExitCode, trace: pr.Trace, steps: pr.M.Steps})
		}
	}
	return out, nil
}

// sameOracles reports whether two preparations built identical binaries
// and native results.
func sameOracles(a, b []oracle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].bin.ContentHash() != b[i].bin.ContentHash() || a[i].k != b[i].k ||
			a[i].exit != b[i].exit || a[i].steps != b[i].steps || !slices.Equal(a[i].trace, b[i].trace) {
			return false
		}
	}
	return true
}

// setupGuests runs prepare reps times, recording each duration as a
// set-up sample and checking that every repetition agrees.
func setupGuests(gs guestSet, reps int, rec *recorder) ([]oracle, error) {
	var first []oracle
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		o, err := gs.prepare()
		if err != nil {
			return nil, err
		}
		rec.setup = append(rec.setup, time.Since(t0).Seconds())
		if first == nil {
			first = o
		} else if !sameOracles(first, o) {
			rec.fail("set-up repetition %d compiled or ran natively differently", i+1)
		}
	}
	return first, nil
}

// jobSeed derives the PSR seed of a job's slot and attempt from the run
// seed (splitmix64 finalizer, so nearby inputs give unrelated seeds).
func jobSeed(seed int64, job, slot, attempt int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(job)<<40 + uint64(slot)<<20 + uint64(attempt)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 1)
}

// warmUp draws each job's PSR seed and keeps the first whose run
// reproduces the native oracle; at a share of seeds the program itself
// fails that check (see README.md, "Known defect"), and those draws are
// counted in redraws, never measured. Draws run on private translation
// caches, so failed draws leave nothing behind. The kept run becomes the
// job's reference. A second untimed round then fills the process-wide
// shared translation cache with the kept jobs' units, as a long-running
// host's would be, and must reproduce every reference exactly.
func (gs guestSet) warmUp(oracles []oracle, seed int64) ([]*guestJob, error) {
	var jobs []*guestJob
	for i, o := range oracles {
		for slot := 0; slot < gs.seedsPerJob; slot++ {
			j := &guestJob{
				name:       fmt.Sprintf("%s/%s#%d", o.bin.Module, o.k, slot),
				bin:        o.bin,
				k:          o.k,
				cacheBytes: gs.cacheBytes,
				limit:      10*o.steps + 1_000_000,
				exit:       o.exit,
				trace:      o.trace,
			}
			for ; ; j.redraws++ {
				if j.redraws == maxRedraws {
					return nil, fmt.Errorf("%s: no PSR seed of %d reproduces the native run", j.name, maxRedraws)
				}
				j.seed = jobSeed(seed, i, slot, j.redraws)
				j.units = dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
				r, err := j.run(passObserved, nil, nil)
				j.units = nil
				if err == nil {
					j.ref = r
					break
				}
			}
			jobs = append(jobs, j)
		}
	}
	for _, j := range jobs {
		r, err := j.run(passObserved, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if !r.sameWork(j.ref) {
			return nil, fmt.Errorf("warm-up: %s ran differently on the shared translation cache", j.name)
		}
	}
	return jobs, nil
}

// probeJobs prepares and warms a guest set for the layer probes of a
// workload that has no guest jobs of its own.
func probeJobs(gs guestSet, seed int64) ([]*guestJob, error) {
	oracles, err := gs.prepare()
	if err != nil {
		return nil, err
	}
	return gs.warmUp(oracles, seed)
}

// redraws counts the PSR seeds the warm-up rejected across jobs.
func redraws(jobs []*guestJob) int {
	n := 0
	for _, j := range jobs {
		n += j.redraws
	}
	return n
}

// pass selects what a job run attaches to the guest machine.
type pass int

const (
	passRaw      pass = iota // dispatch only
	passObserved             // timing model attached
	passProfiled             // timing model plus the sampling profiler
)

// run boots the job and runs it to exit through the public calls, each
// under a span when traced. migUS, when non-nil, receives the wall time
// of every Migrator call.
func (j *guestJob) run(p pass, tr *tracer, migUS *[]float64) (jobRun, error) {
	cfg := core.DefaultConfig()
	cfg.StartISA = j.k
	cfg.DBT.Seed = j.seed
	cfg.DBT.CodeCacheSize = j.cacheBytes
	cfg.DBT.SharedUnits = j.units
	cfg.DBT.Telemetry = tr.telemetry()
	sp := tr.start("core", "core.New")
	sys, err := core.New(j.bin, cfg)
	sp.End()
	if err != nil {
		return jobRun{}, fmt.Errorf("%s: boot: %w", j.name, err)
	}
	var model *perf.Model
	if p != passRaw {
		model = perf.NewModel(perf.CoreFor(j.k))
		model.RATEnabled = true
		model.Attach(sys.VM.P.M)
	}
	if p == passProfiled {
		prof := profiler.New(j.bin, 0)
		prof.BindModel(model)
		prof.SetClassResolver(sys.VM.ResolvePCClass)
		prof.Attach(sys.VM.P.M)
	}
	if sys.VM.Migrator != nil && (tr != nil || migUS != nil) {
		sys.VM.Migrator = &timedMigrator{inner: sys.VM.Migrator, tr: tr, us: migUS}
	}
	sp = tr.start("machine", "System.Run")
	steps, err := sys.Run(j.limit)
	sp.End()
	switch {
	case err != nil:
		return jobRun{}, fmt.Errorf("%s seed %d: %w", j.name, j.seed, err)
	case !sys.Exited():
		return jobRun{}, fmt.Errorf("%s seed %d: still running after %d steps", j.name, j.seed, steps)
	case sys.ExitCode() != j.exit:
		return jobRun{}, fmt.Errorf("%s seed %d: exit %d, native %d", j.name, j.seed, sys.ExitCode(), j.exit)
	case !slices.Equal(sys.VM.P.Trace, j.trace):
		return jobRun{}, fmt.Errorf("%s seed %d: SysWrite trace differs from the native run", j.name, j.seed)
	}
	st := &sys.VM.Stats
	bs := sys.VM.P.M.BlockStats()
	fs := sys.VM.P.M.FusionStats()
	r := jobRun{
		Steps:        steps,
		translations: st.Translations[isa.X86] + st.Translations[isa.ARM],
		flushes:      st.Flushes,
		migrations:   st.Migrations,
		sharedHits:   st.SharedHits,
		sharedMisses: st.SharedMisses,
		batched:      fs.BatchedBlocks,
		exact:        fs.ExactBlocks,
		bcHits:       bs.Hits,
		bcMisses:     bs.Misses,
		inv:          bs.Invalidations,
	}
	if model != nil {
		r.Instrs, r.Cycles = model.Counts.Instrs, model.Cycles
	}
	return r, nil
}

// timedMigrator decorates the VM's public Migrator field: it times every
// call from outside and records it as a span on the migrate track.
type timedMigrator struct {
	inner dbt.Migrator
	tr    *tracer
	us    *[]float64
}

func (m *timedMigrator) Migrate(vm *dbt.VM, resumeSrc uint32, boundary bool) bool {
	sp := m.tr.start("migrate", "Migrate")
	t0 := time.Now()
	ok := m.inner.Migrate(vm, resumeSrc, boundary)
	m.record(t0)
	sp.End()
	return ok
}

func (m *timedMigrator) MigrateEntry(vm *dbt.VM, calleeEntry uint32) bool {
	sp := m.tr.start("migrate", "MigrateEntry")
	t0 := time.Now()
	ok := m.inner.MigrateEntry(vm, calleeEntry)
	m.record(t0)
	sp.End()
	return ok
}

func (m *timedMigrator) record(t0 time.Time) {
	if m.us != nil {
		*m.us = append(*m.us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// guestWorkload is guest-observed or guest-churn: rounds over a job set,
// each job booted and run to exit with the timing model attached.
type guestWorkload struct {
	name string
	set  guestSet
	// setupReps is how many times set-up is repeated for its median.
	setupReps int
	golden    *guestGolden
	update    bool // record the golden instead of checking it
}

// workSteps is the unit of work_s on the guest workloads: seconds per ten
// million guest steps, so that a seed whose jobs run longer does not read
// as a slower simulator.
const workSteps = 1e7

// totals sums the layer counters of a round's runs.
type totals struct {
	jobRun
	dur time.Duration
}

func (t *totals) add(r jobRun) {
	t.Steps += r.Steps
	t.Instrs += r.Instrs
	t.Cycles += r.Cycles
	t.translations += r.translations
	t.flushes += r.flushes
	t.migrations += r.migrations
	t.sharedHits += r.sharedHits
	t.sharedMisses += r.sharedMisses
	t.batched += r.batched
	t.exact += r.exact
	t.bcHits += r.bcHits
	t.bcMisses += r.bcMisses
	t.inv += r.inv
}

// rounds runs timed rounds over jobs until the budget is spent (at least
// one round), checking every run against its reference.
func (g *guestWorkload) rounds(jobs []*guestJob, budget time.Duration, tr *tracer, rec *recorder) totals {
	var all totals
	start := time.Now()
	for {
		r0 := time.Now()
		var t totals
		for _, j := range jobs {
			j0 := time.Now()
			r, err := j.run(passObserved, tr, nil)
			rec.attempted++
			rec.ops = append(rec.ops, float64(time.Since(j0).Nanoseconds())/1e6)
			switch {
			case err != nil:
				rec.fail("%v", err)
			case !r.sameWork(j.ref):
				rec.fail("%s: run differs from the warm-up run (%d/%d steps, %v/%v cycles)",
					j.name, r.Steps, j.ref.Steps, r.Cycles, j.ref.Cycles)
			}
			t.add(r)
		}
		t.dur = time.Since(r0)
		rec.work = append(rec.work, t.dur.Seconds()*workSteps/float64(max(t.Steps, 1)))
		all.add(t.jobRun)
		all.dur += t.dur
		if el := time.Since(start); el+t.dur > budget {
			return all
		}
	}
}

// run measures the workload: set-up, the warm-up round, then timed
// rounds; a traced run adds a traced half and the layer probes.
func (g *guestWorkload) run(opt runOptions) (result, error) {
	rec := &recorder{}
	oracles, err := setupGuests(g.set, g.setupReps, rec)
	if err != nil {
		return result{}, err
	}
	jobs, err := g.set.warmUp(oracles, opt.seed)
	if err != nil {
		return result{}, err
	}
	rec.redrawn = redraws(jobs)
	switch {
	case g.update:
		if err := writeGolden(g.name+".json", guestGoldenOf(jobs)); err != nil {
			return result{}, err
		}
	case g.golden != nil && opt.seed == 1:
		g.golden.check(jobs, rec)
	}
	if !opt.traced {
		g.rounds(jobs, opt.budget, nil, rec)
		return rec.endToEnd(), nil
	}
	g.rounds(jobs, opt.budget/2, nil, rec)
	traced := &recorder{}
	tr := newTracer()
	t0 := time.Now()
	sum := g.rounds(jobs, opt.budget/2, tr, traced)
	lt := tr.collect(time.Since(t0))
	vals := map[string]float64{}
	lt.shares(vals)
	sum.layerValues(vals)
	vals["bench.msteps_s"] = float64(sum.Steps) / sum.dur.Seconds() / 1e6
	runProbes(jobs, opt.seed, rec, vals)
	return rec.perLayer(traced, vals, tr, opt)
}

// layerValues writes the per-Mstep rates and ratios of the summed runs
// into vals.
func (t totals) layerValues(vals map[string]float64) {
	msteps := float64(t.Steps) / 1e6
	vals["machine.batched_frac"] = ratio(float64(t.batched), float64(t.batched+t.exact))
	vals["machine.blockcache_hit_ratio"] = ratio(float64(t.bcHits), float64(t.bcHits+t.bcMisses))
	vals["machine.invalidations_per_mstep"] = ratio(float64(t.inv), msteps)
	vals["dbt.translations_per_mstep"] = ratio(float64(t.translations), msteps)
	vals["dbt.flushes_per_mstep"] = ratio(float64(t.flushes), msteps)
	vals["dbt.shared_hit_ratio"] = ratio(float64(t.sharedHits), float64(t.sharedHits+t.sharedMisses))
	vals["migrate.per_mstep"] = ratio(float64(t.migrations), msteps)
}

// probeReps is how many times the probes run each pass of each job.
const probeReps = 3

// runProbes times each layer's public calls in isolation over jobs (whose
// references the warm-up round set): core boot, fork and respawn; raw,
// observed and profiled passes interleaved job by job; the Migrator
// wrapper; the translate census; and a small fleet. Every traced run
// executes them, so every time-valued per-layer metric is measured on
// every workload.
func runProbes(jobs []*guestJob, seed int64, rec *recorder, vals map[string]float64) {
	var boot, fork, respawn, migUS []float64
	var passes [3]totals // indexed by pass
	for _, j := range jobs {
		// Each pass runs probeReps times, interleaved with the others, and
		// keeps its fastest run: the per-step differences between passes
		// are a few nanoseconds, less than one run's noise on this host.
		var best [3]time.Duration
		for i := 0; i < probeReps; i++ {
			for _, p := range []pass{passRaw, passObserved, passProfiled} {
				var mig *[]float64
				if p == passObserved {
					mig = &migUS
				}
				t0 := time.Now()
				r, err := j.run(p, nil, mig)
				if d := time.Since(t0); i == 0 || d < best[p] {
					best[p] = d
				}
				rec.attempted++
				switch {
				case err != nil:
					rec.fail("probe: %v", err)
				case r.Steps != j.ref.Steps || (p != passRaw && !r.sameWork(j.ref)):
					rec.fail("probe: %s pass %d differs from the warm-up run", j.name, p)
				}
				if i == 0 {
					passes[p].add(r)
				}
			}
		}
		for p := range best {
			passes[p].dur += best[p]
		}
		b, f, rs, err := forkProbe(j, 3)
		if err != nil {
			rec.fail("probe: %v", err)
		}
		boot, fork, respawn = append(boot, b...), append(fork, f...), append(respawn, rs...)
	}
	raw, obs, prof := passes[passRaw], passes[passObserved], passes[passProfiled]
	nsPerStep := func(t totals) float64 { return float64(t.dur.Nanoseconds()) / float64(max(t.Steps, 1)) }
	// Simulated counts are exact: the observed pass is one round of jobs.
	vals["perf.cycles"] = obs.Cycles
	vals["perf.cpi"] = ratio(obs.Cycles, float64(obs.Instrs))
	vals["machine.ns_per_step"] = nsPerStep(raw)
	vals["perf.ns_per_step"] = nsPerStep(obs) - nsPerStep(raw)
	vals["profiler.ns_per_step"] = nsPerStep(prof) - nsPerStep(obs)
	vals["machine.batched_frac.profiled"] = ratio(float64(prof.batched), float64(prof.batched+prof.exact))
	vals["core.boot_us_p50"] = percentile(boot, 50)
	vals["core.boot_us_p99"] = percentile(boot, 99)
	vals["core.fork_us_p50"] = percentile(fork, 50)
	vals["core.respawn_us_p50"] = percentile(respawn, 50)
	vals["migrate.us_p50"] = percentile(migUS, 50)
	vals["migrate.us_p99"] = percentile(migUS, 99)
	cold, shared, err := translateCensus(jobs)
	if err != nil {
		rec.fail("probe: %v", err)
	}
	vals["dbt.translate_cold_us_p50"] = percentile(cold, 50)
	vals["dbt.translate_shared_us_p50"] = percentile(shared, 50)
	fleetProbe(jobs, seed, rec, vals)
}

// forkProbe boots a prototype of j (timing core.New), runs it a little,
// snapshots it, and times reps Fork and Respawn calls on the snapshot.
func forkProbe(j *guestJob, reps int) (boot, fork, respawn []float64, err error) {
	cfg := core.DefaultConfig()
	cfg.StartISA = j.k
	cfg.DBT.Seed = j.seed
	cfg.DBT.CodeCacheSize = j.cacheBytes
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		proto, err := core.New(j.bin, cfg)
		boot = append(boot, usSince(t0))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: boot: %w", j.name, err)
		}
		if i > 0 {
			continue
		}
		if _, err := proto.Run(min(j.ref.Steps/2, 50_000)); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: prototype run: %w", j.name, err)
		}
		snap := proto.Snapshot()
		for r := 0; r < reps; r++ {
			t0 = time.Now()
			_, err := snap.Fork(dbt.ForkConfig{})
			fork = append(fork, usSince(t0))
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s: fork: %w", j.name, err)
			}
			t0 = time.Now()
			_, err = snap.Respawn(j.seed+int64(r)+1, dbt.ForkConfig{})
			respawn = append(respawn, usSince(t0))
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s: respawn: %w", j.name, err)
			}
		}
	}
	return boot, fork, respawn, nil
}

// translateCensus times EnsureTranslated on every function entry of each
// distinct (binary, ISA) of jobs: cold on VMs that skip the shared unit
// cache, then shared against a private cache one identical VM has warmed.
func translateCensus(jobs []*guestJob) (cold, shared []float64, err error) {
	seen := map[string]bool{}
	for _, j := range jobs {
		key := fmt.Sprintf("%s/%s", j.bin.Module, j.k)
		if seen[key] {
			continue
		}
		seen[key] = true
		cache := dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
		for _, c := range []struct {
			cfg dbt.Config
			out *[]float64
		}{
			{dbt.Config{NoSharedUnits: true}, &cold},
			{dbt.Config{SharedUnits: cache}, nil},
			{dbt.Config{SharedUnits: cache}, &shared},
		} {
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModePSR
			cfg.StartISA = j.k
			cfg.DBT.Seed = j.seed
			cfg.DBT.CodeCacheSize = j.cacheBytes
			cfg.DBT.NoSharedUnits = c.cfg.NoSharedUnits
			cfg.DBT.SharedUnits = c.cfg.SharedUnits
			sys, err := core.New(j.bin, cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("census %s: boot: %w", key, err)
			}
			for _, fn := range j.bin.Funcs {
				t0 := time.Now()
				_, err := sys.VM.EnsureTranslated(j.k, fn.Entry[j.k])
				if c.out != nil {
					*c.out = append(*c.out, usSince(t0))
				}
				if err != nil {
					return nil, nil, fmt.Errorf("census %s: %s: %w", key, fn.Name, err)
				}
			}
		}
	}
	return cold, shared, nil
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
