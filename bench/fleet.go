package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"hipstr/internal/fleet"
	"hipstr/internal/workload"
)

// fleetWorkers is every fleet host's worker count: with the open-loop
// generator, the two cores the benchmark is sized for.
const fleetWorkers = 2

// openShare is the share of fleet-mixed's budget the open-loop phase gets;
// the drains get the rest.
const openShare = 0.5

// attackProb is the per-slice probability of an injected breach, which
// makes the host respawn the tenant under a fresh PSR seed.
const attackProb = 0.02

// fleetWorkload is fleet-mixed: a 2-worker host admitting warm-forked
// tenants of a seeded mix of profiles, with a step quota and injected
// breaches, first from an open-loop Poisson source, then in closed-loop
// drains. No timing model is attached to tenants.
type fleetWorkload struct {
	profiles []string
	quota    uint64
	// rate is the open-loop arrival rate, about 40% of the host's measured
	// drain capacity: enough to queue, never a growing backlog.
	rate   float64
	batch  int
	golden *fleetGolden
	update bool // record the golden instead of checking it
}

func newFleetWorkload() *fleetWorkload {
	return &fleetWorkload{
		profiles: []string{"httpd", "libquantum"},
		quota:    200_000,
		rate:     100,
		batch:    200,
	}
}

// host builds and warms a fresh host (the fleet workload's set-up: it
// compiles, boots and snapshots one prototype per profile).
func (w *fleetWorkload) host(seed int64, profiles []string, tr *tracer) (*fleet.Host, error) {
	cfg := fleet.DefaultConfig()
	cfg.Workers = fleetWorkers
	cfg.Seed = seed
	cfg.Policy.StepQuota = w.quota
	cfg.Policy.AttackProb = attackProb
	h := fleet.NewHost(cfg)
	for _, p := range profiles {
		sp := tr.start("fleet", "AddWorkload")
		err := h.AddWorkload(p)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// mix draws n tenant profiles, uniformly and reproducibly from seed.
func mix(profiles []string, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = profiles[rng.Intn(len(profiles))]
	}
	return out
}

// clock abstracts time for the open-loop generator so a test can stall it.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) now() time.Time         { return time.Now() }
func (wallClock) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// arrival is one open-loop admission: when it was due, when the generator
// issued it, and when Admit returned.
type arrival struct {
	due, issued, returned time.Time
}

// openLoop issues admit(i) at each scheduled offset from now, regardless
// of whether earlier admissions have been served. A stalled admit delays
// every later one, and timing each tenant from its due time charges that
// wait to the tenants that suffered it.
func openLoop(offsets []time.Duration, clk clock, admit func(i int)) []arrival {
	out := make([]arrival, len(offsets))
	start := clk.now()
	for i, off := range offsets {
		due := start.Add(off)
		clk.sleepUntil(due)
		out[i] = arrival{due: due, issued: clk.now()}
		admit(i)
		out[i].returned = clk.now()
	}
	return out
}

// dueToRetire is a tenant's latency from its due time to its retirement:
// the wait before Admit returned, plus the host's admission-to-retirement
// latency.
func dueToRetire(a arrival, admitToRetire time.Duration) time.Duration {
	return a.returned.Sub(a.due) + admitToRetire
}

// fleetStats is what the hosts of a measuring pass did.
type fleetStats struct {
	respawns, killed, steals uint64
	late, issued             int
	lagMax                   time.Duration
	batchSteps               uint64
	batchTime                time.Duration
	tenants                  totals // layer counters of timed-batch tenants
}

// checkTenants counts every tenant as an operation, failing any killed
// for a reason other than the respawn limit, and folds their outcomes.
func checkTenants(h *fleet.Host, rec *recorder, st *fleetStats) *folder {
	f := newFolder()
	for _, t := range h.Tenants() {
		rec.attempted++
		if t.State() == "killed" && !strings.HasPrefix(t.Err(), "respawn limit") {
			rec.fail("tenant %d (%s) killed: %s", t.ID(), t.Workload(), t.Err())
		}
		f.addTenant(t)
	}
	a := h.Aggregates()
	st.respawns += a.Respawns
	st.killed += a.Killed
	st.steals += a.Steals
	return f
}

// openPhase runs one host under open-loop Poisson arrivals for d.
func (w *fleetWorkload) openPhase(seed int64, d time.Duration, tr *tracer, rec *recorder, st *fleetStats) (*folder, error) {
	s0 := time.Now()
	h, err := w.host(seed, w.profiles, tr)
	if err != nil {
		return nil, err
	}
	rec.setup = append(rec.setup, time.Since(s0).Seconds())
	var offsets []time.Duration
	for arr, t := workload.NewArrivals(seed, w.rate), time.Duration(0); ; {
		if t += arr.Next(); t >= d {
			break
		}
		offsets = append(offsets, t)
	}
	names := mix(w.profiles, seed^0x6d6978, len(offsets))
	tenants := make([]*fleet.Tenant, len(offsets))
	h.Start(context.Background())
	sp := tr.start("fleet", "open-loop")
	arrivals := openLoop(offsets, wallClock{}, func(i int) {
		asp := tr.start("fleet", "Admit")
		t, err := h.Admit(names[i])
		asp.End()
		if err != nil {
			rec.fail("admit: %v", err)
		}
		tenants[i] = t
	})
	h.Close()
	err = h.Wait()
	sp.End()
	if err != nil {
		return nil, err
	}
	for i, a := range arrivals {
		if tenants[i] != nil {
			rec.ops = append(rec.ops, float64(dueToRetire(a, tenants[i].Latency()).Nanoseconds())/1e6)
		}
		lag := a.issued.Sub(a.due)
		st.lagMax = max(st.lagMax, lag)
		st.issued++
		if lag > time.Millisecond {
			st.late++
		}
	}
	return checkTenants(h, rec, st), nil
}

// drain admits one batch back to back on a fresh host and waits for it to
// retire.
func (w *fleetWorkload) drain(seed int64, tr *tracer, rec *recorder) (*fleet.Host, time.Duration, error) {
	s0 := time.Now()
	h, err := w.host(seed, w.profiles, tr)
	if err != nil {
		return nil, 0, err
	}
	rec.setup = append(rec.setup, time.Since(s0).Seconds())
	names := mix(w.profiles, seed^0x6d6978, w.batch)
	h.Start(context.Background())
	sp := tr.start("fleet", "drain")
	t0 := time.Now()
	for _, n := range names {
		asp := tr.start("fleet", "Admit")
		_, err := h.Admit(n)
		asp.End()
		if err != nil {
			rec.fail("admit: %v", err)
		}
	}
	h.Close()
	err = h.Wait()
	d := time.Since(t0)
	sp.End()
	return h, d, err
}

// measure runs the open-loop phase, then drains until the budget is
// spent: one warm-up batch, then at least one timed batch. Every batch
// admits the same tenants, so every batch must fold to the same outcome.
func (w *fleetWorkload) measure(seed int64, budget time.Duration, tr *tracer, rec *recorder, st *fleetStats) error {
	start := time.Now()
	open, err := w.openPhase(seed, time.Duration(openShare*float64(budget)), tr, rec, st)
	if err != nil {
		return err
	}
	var first *folder
	for b := 0; ; b++ {
		h, d, err := w.drain(seed+1, tr, rec)
		if err != nil {
			return err
		}
		f := checkTenants(h, rec, st)
		if first == nil {
			first = f
		} else if f.sum() != first.sum() {
			rec.fail("drain batch %d folds to %s, batch 0 to %s", b, f.sum(), first.sum())
		}
		if b > 0 {
			rec.work = append(rec.work, d.Seconds())
			st.batchSteps += h.Aggregates().Steps
			st.batchTime += d
			st.tenants.add(tenantCounters(h))
		}
		if b > 0 && time.Since(start)+d > budget {
			break
		}
	}
	switch {
	case w.update:
		return writeGolden("fleet-mixed.json", fleetGoldenOf(open, first))
	case w.golden != nil && seed == 1:
		w.golden.check(open, first, rec)
	}
	return nil
}

func (w *fleetWorkload) run(opt runOptions) (result, error) {
	rec := &recorder{}
	if !opt.traced {
		if err := w.measure(opt.seed, opt.budget, nil, rec, &fleetStats{}); err != nil {
			return result{}, err
		}
		return rec.endToEnd(), nil
	}
	if err := w.measure(opt.seed, opt.budget/2, nil, rec, &fleetStats{}); err != nil {
		return result{}, err
	}
	traced := &recorder{}
	tr := newTracer()
	var st fleetStats
	t0 := time.Now()
	if err := w.measure(opt.seed, opt.budget/2, tr, traced, &st); err != nil {
		return result{}, err
	}
	lt := tr.collect(time.Since(t0))
	vals := map[string]float64{
		"fleet.respawns":      float64(st.respawns),
		"fleet.killed":        float64(st.killed),
		"fleet.steals":        float64(st.steals),
		"fleet.gen_late_frac": ratio(float64(st.late), float64(st.issued)),
		"bench.msteps_s":      float64(st.batchSteps) / st.batchTime.Seconds() / 1e6,
	}
	st.tenants.Steps = st.batchSteps
	st.tenants.layerValues(vals)
	lt.shares(vals)
	fmt.Printf("fleet-mixed  generator lag max %.3f ms over %d admissions\n", float64(st.lagMax.Nanoseconds())/1e6, st.issued)
	gs := observedSet
	gs.profiles = w.profiles
	jobs, err := probeJobs(gs, opt.seed)
	if err != nil {
		return result{}, err
	}
	rec.redrawn = redraws(jobs)
	runProbes(jobs, opt.seed, rec, vals)
	return rec.perLayer(traced, vals, tr, opt)
}

// tenantCounters sums the machine and DBT counters of each retired
// tenant's final telemetry snapshot. A respawned tenant's snapshot covers
// its last life only, so these undercount slightly under breaches.
func tenantCounters(h *fleet.Host) jobRun {
	var r jobRun
	for _, t := range h.Tenants() {
		_, snap, ok := h.TenantSnapshot(strconv.FormatUint(t.ID(), 10))
		if !ok {
			continue
		}
		c := snap.Counters
		r.translations += c["dbt.translations.x86"] + c["dbt.translations.arm"]
		r.flushes += c["dbt.flushes"]
		r.migrations += c["dbt.migrations"]
		r.sharedHits += c["dbt.sharedcache.hits"]
		r.sharedMisses += c["dbt.sharedcache.misses"]
		r.batched += c["machine.fusion.blocks.batched"]
		r.exact += c["machine.fusion.blocks.exact"]
		r.bcHits += c["machine.blockcache.hits"]
		r.bcMisses += c["machine.blockcache.misses"]
		r.inv += c["machine.blockcache.invalidations"]
	}
	return r
}

// fleetProbe times Admit calls and tenant slices on a small closed-loop
// host over the profiles of jobs, under the fleet-mixed policy.
func fleetProbe(jobs []*guestJob, seed int64, rec *recorder, vals map[string]float64) {
	var profiles []string
	for _, j := range jobs {
		if !slices.Contains(profiles, j.bin.Module) {
			profiles = append(profiles, j.bin.Module)
		}
	}
	w := newFleetWorkload()
	h, err := w.host(seed, profiles, nil)
	if err != nil {
		rec.fail("fleet probe: %v", err)
		return
	}
	h.Start(context.Background())
	var admitUS []float64
	t0 := time.Now()
	for _, n := range mix(profiles, seed, 100) {
		a0 := time.Now()
		_, err := h.Admit(n)
		admitUS = append(admitUS, usSince(a0))
		if err != nil {
			rec.fail("fleet probe: admit: %v", err)
		}
	}
	h.Close()
	if err := h.Wait(); err != nil {
		rec.fail("fleet probe: %v", err)
	}
	d := time.Since(t0)
	checkTenants(h, rec, &fleetStats{})
	vals["fleet.admit_us_p50"] = percentile(admitUS, 50)
	vals["fleet.admit_us_p99"] = percentile(admitUS, 99)
	vals["fleet.slice_us_p99"] = h.Telemetry().Snapshot().Histograms["fleet.slice_us"].Quantile(0.99)
	vals["fleet.msteps_s"] = float64(h.Aggregates().Steps) / d.Seconds() / 1e6
}

// folder is an FNV-1a fold of tenant outcomes in admission order —
// (id, workload, state, digest, respawns) — with the fold after each
// checkpoint count kept.
type folder struct {
	n, respawns, killed int
	h                   hash.Hash64
	prefix              map[int]string
}

// foldCheckpoints are the tenant counts at which a fold is kept: every
// open-loop phase covers a prefix of the same seeded tenant sequence, so
// runs of any length compare on the checkpoints they reach.
var foldCheckpoints = []int{100, 200, 400, 800, 1600, 3200}

func newFolder() *folder { return &folder{h: fnv.New64a(), prefix: map[int]string{}} }

func (f *folder) addTenant(t *fleet.Tenant) {
	f.add(t.ID(), t.Workload(), t.State(), t.Digest(), t.Respawns())
}

func (f *folder) add(id uint64, workload, state string, digest uint64, respawns int) {
	fmt.Fprintf(f.h, "%d/%s/%s/%x/%d;", id, workload, state, digest, respawns)
	f.n++
	f.respawns += respawns
	if state == "killed" {
		f.killed++
	}
	if slices.Contains(foldCheckpoints, f.n) {
		f.prefix[f.n] = f.sum()
	}
}

func (f *folder) sum() string { return fmt.Sprintf("%d:%016x", f.n, f.h.Sum64()) }
