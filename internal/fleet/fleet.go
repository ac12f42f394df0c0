// Package fleet is the multi-tenant host: it admits thousands of guest
// VMs from an open-loop traffic source, forks each from a per-binary
// prototype snapshot (warm admission — the Nth spawn pays O(dirty state),
// not a boot), and executes them on a bounded worker pool that
// dispatches step-budget time slices from one host-owned run queue, so
// long guests cannot starve admission.
//
// This is the stance HIPStR's premise demands: migration and PSR are
// cheap enough to apply to every running program, which only matters if
// one host can actually run "every running program" at once. The fleet
// treats migration probability, step quotas, and kill/respawn-under-
// attack as per-tenant policy, making heterogeneous-ISA defense a
// fleet-scheduling decision rather than a per-process toggle.
//
// Determinism contract: guest execution consumes only per-VM randomness
// (the PSR/policy streams seeded per fork) and per-tenant randomness
// (attack injection, seeded from the fleet seed and the tenant ID).
// Scheduling draws no randomness at all, and dispatch order never reaches
// a guest. A fleet run therefore produces bit-identical per-tenant results
// (digest over exit code, architectural state, and output trace) at any
// worker count, which the tests pin.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

// DefaultSliceSteps is the per-dispatch step budget when Policy.SliceSteps
// is zero: long enough that slice overhead (two queue ops, a clock read)
// is noise against ~10ns/step execution, short enough that a worker
// revisits the run queue several hundred times per second per core.
const DefaultSliceSteps = 20_000

// Policy is the per-tenant resource and defense envelope.
type Policy struct {
	// SliceSteps is the step budget per dispatch (0 = DefaultSliceSteps).
	SliceSteps uint64
	// StepQuota retires the tenant after this many guest steps in its
	// current life (0 = run to completion). Respawns reset the meter:
	// a fresh guest gets a fresh budget.
	StepQuota uint64
	// CacheQuotaBytes bounds each tenant's per-ISA code cache. It is a
	// boot-time property of the workload's prototype (resizing a live
	// cache would invalidate PCs inside it), so it applies per workload
	// class, not per individual tenant.
	CacheQuotaBytes uint32
	// MigrateProb is the per-security-event migration probability under
	// ModeHIPStR (ignored under PSR, which pins it to 0).
	MigrateProb float64
	// AttackProb injects a synthetic breach detection before a slice
	// with this probability, exercising the kill/respawn path under
	// load. Draws come from the tenant's private seeded stream.
	AttackProb float64
	// RespawnLimit caps breach respawns per tenant; past it the tenant
	// is killed for good.
	RespawnLimit int
	// WarmupSteps runs a disposable fork of each prototype this many
	// steps at AddWorkload time, populating the shared unit cache so
	// tenant admission installs translations by copy instead of
	// translating (0 = no warmup).
	WarmupSteps uint64
}

// DefaultPolicy mirrors the paper's always-on stance: full migration
// probability, a few respawns before giving up on a compromised tenant.
func DefaultPolicy() Policy {
	return Policy{
		SliceSteps:   DefaultSliceSteps,
		MigrateProb:  1.0,
		RespawnLimit: 3,
		WarmupSteps:  50_000,
	}
}

// Config configures a Host.
type Config struct {
	// Workers is the execution pool size (0 = GOMAXPROCS).
	Workers int
	// Mode selects the defense every tenant runs under.
	Mode core.Mode
	// Seed roots every deterministic stream: prototype PSR seeds,
	// per-tenant attack streams, respawn seed lineages.
	Seed int64
	// Policy is the default per-tenant envelope.
	Policy Policy
	// ColdAdmission boots every tenant from scratch (private unit
	// cache, full translation) instead of forking the prototype
	// snapshot — the baseline the warm path is measured against.
	ColdAdmission bool
	// Telemetry receives fleet aggregates (nil = private instance).
	Telemetry *telemetry.Telemetry
}

// Per-tenant bounds. Only the first perTenantSeries tenants publish
// fleet.tenant.<id>.* gauges: series live forever in the registry, and a
// million-tenant run must not grow it unbounded. Each tenant's private
// event ring keeps tenantTraceCap events (~80 B each), which holds a
// 1000-tenant fleet's tracer footprint near 20 MB instead of 300+.
const (
	perTenantSeries = 64
	tenantTraceCap  = 256
)

// DefaultConfig returns a HIPStR-mode fleet with the default policy.
func DefaultConfig() Config {
	return Config{Mode: core.ModeHIPStR, Seed: 1, Policy: DefaultPolicy()}
}

// Tenant states, in lifecycle order.
const (
	tenantQueued int32 = iota
	tenantRunning
	tenantDone
	tenantKilled
)

func stateName(s int32) string {
	switch s {
	case tenantQueued:
		return "queued"
	case tenantRunning:
		return "running"
	case tenantDone:
		return "done"
	case tenantKilled:
		return "killed"
	}
	return "unknown"
}

// Tenant is one admitted guest. Workers hold mu while running a slice;
// HTTP drill-down takes the same lock, so an observer sees either the
// state before or after a slice, never mid-step.
type Tenant struct {
	id       uint64
	workload string
	policy   Policy
	seed     int64
	proto    *proto
	admitted time.Time

	state atomic.Int32

	mu         sync.Mutex
	sys        *core.System
	rng        *rand.Rand // attack-injection draws only
	steps      uint64     // lifetime guest steps, across respawns
	lifeSteps  uint64     // steps in the current life (quota domain)
	slices     uint64
	respawns   int
	migrations uint64
	exitCode   uint32
	errMsg     string
	latency    time.Duration
	digest     uint64
	final      telemetry.Snapshot
}

// ID returns the tenant's fleet-unique ID.
func (t *Tenant) ID() uint64 { return t.id }

// Workload returns the workload profile name.
func (t *Tenant) Workload() string { return t.workload }

// State returns the lifecycle state name.
func (t *Tenant) State() string { return stateName(t.state.Load()) }

// Done reports whether the tenant has been retired (completed or killed).
func (t *Tenant) Done() bool {
	s := t.state.Load()
	return s == tenantDone || s == tenantKilled
}

// Digest returns the result digest (valid once Done).
func (t *Tenant) Digest() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.digest
}

// Steps returns lifetime guest steps executed so far.
func (t *Tenant) Steps() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.steps
}

// Respawns returns how many breach respawns the tenant has used.
func (t *Tenant) Respawns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.respawns
}

// ExitCode returns the guest exit code (valid once Done).
func (t *Tenant) ExitCode() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exitCode
}

// Latency returns admission-to-retirement latency (valid once Done).
func (t *Tenant) Latency() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latency
}

// Err returns why the tenant was killed ("" for clean completion).
func (t *Tenant) Err() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errMsg
}

// proto is one workload's admission source: the compiled fat binary and
// the booted-prototype snapshot every warm tenant forks from.
type proto struct {
	name string
	bin  *fatbin.Binary
	cfg  core.Config
	snap *core.Snapshot
}

// Host is the multi-tenant fleet host.
type Host struct {
	cfg Config
	tel *telemetry.Telemetry

	// mu guards the run queue (sched.go) and started; workers park on
	// cond while both FIFOs are empty.
	mu         sync.Mutex
	cond       *sync.Cond
	fresh      []*Tenant // admitted, never run
	runq       []*Tenant // started, waiting for the next slice
	dispatches uint64
	started    bool

	tmu     sync.RWMutex
	protos  map[string]*proto
	tenants map[uint64]*Tenant
	order   []uint64

	nextID   atomic.Uint64
	pending  atomic.Int64
	active   atomic.Int64
	peak     atomic.Int64
	closed   atomic.Bool
	ready    atomic.Bool
	startNS  atomic.Int64
	endNS    atomic.Int64
	ctx      context.Context
	stopWake func() bool // unregisters Start's wake-on-cancel
	wg       sync.WaitGroup

	cAdmitted, cCompleted, cQuota, cKilled *telemetry.Counter
	cRespawns, cBreaches, cSlices, cSteps  *telemetry.Counter
	cMigrations                            *telemetry.Counter
	hLatency, hSlice                       *telemetry.Histogram
}

// NewHost returns a host with its aggregate metrics registered. The
// gauges (active, peak, rps, injector depth) are collector-backed: they
// read atomics and, for the injector depth, the run-queue lock, so the
// registry is scrape-safe from any goroutine.
func NewHost(cfg Config) *Host {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Policy.SliceSteps == 0 {
		cfg.Policy.SliceSteps = DefaultSliceSteps
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New()
	}
	h := &Host{
		cfg:     cfg,
		tel:     tel,
		protos:  make(map[string]*proto),
		tenants: make(map[uint64]*Tenant),

		cAdmitted:   tel.Counter("fleet.admitted"),
		cCompleted:  tel.Counter("fleet.completed"),
		cQuota:      tel.Counter("fleet.quota_retired"),
		cKilled:     tel.Counter("fleet.killed"),
		cRespawns:   tel.Counter("fleet.respawns"),
		cBreaches:   tel.Counter("fleet.breaches"),
		cSlices:     tel.Counter("fleet.slices"),
		cSteps:      tel.Counter("fleet.steps"),
		cMigrations: tel.Counter("fleet.migrations"),
		hLatency:    tel.Histogram("fleet.latency_us"),
		hSlice:      tel.Histogram("fleet.slice_us"),
	}
	h.cond = sync.NewCond(&h.mu)
	// Nothing steals work, so fleet.steals is always 0. It stays
	// registered for its last readers: the benchmark (bench/fleet.go
	// sums Aggregates.Steals into it) and CI's fleet smoke step, which
	// greps /metrics for '^fleet_steals '.
	tel.Counter("fleet.steals")
	tel.Reg.RegisterCollector(func() {
		h.mu.Lock()
		depth := len(h.fresh)
		h.mu.Unlock()
		tel.Gauge("fleet.workers").Set(float64(cfg.Workers))
		tel.Gauge("fleet.active").Set(float64(h.active.Load()))
		tel.Gauge("fleet.active_peak").Set(float64(h.peak.Load()))
		tel.Gauge("fleet.injector_depth").Set(float64(depth))
		tel.Gauge("fleet.rps").Set(h.rps())
		tel.Gauge(
			"fleet.latency_p99_us",
		).Set(h.hLatency.Snapshot().Quantile(0.99))
	})
	return h
}

// Telemetry returns the host's aggregate registry.
func (h *Host) Telemetry() *telemetry.Telemetry { return h.tel }

// MarkReady flips the readiness gate. The driver calls it once every
// AddWorkload has booted and warmed its prototype, so /readyz stops
// refusing traffic exactly when admissions can be served warm.
func (h *Host) MarkReady() { h.ready.Store(true) }

// Ready reports whether the host's prototypes are warmed (MarkReady).
func (h *Host) Ready() bool { return h.ready.Load() }

// protoConfig builds the boot config for a workload prototype.
func (h *Host) protoConfig(prof workload.Profile) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = h.cfg.Mode
	cfg.DBT.Seed = h.cfg.Seed ^ prof.Seed<<16
	// Forks and respawns of the prototype inherit its small event ring.
	cfg.DBT.TraceCap = tenantTraceCap
	if q := h.cfg.Policy.CacheQuotaBytes; q > 0 {
		cfg.DBT.CodeCacheSize = q
	}
	if h.cfg.Mode == core.ModeHIPStR {
		cfg.DBT.MigrateProb = h.cfg.Policy.MigrateProb
	}
	return cfg
}

// AddWorkload compiles the named profile, boots its prototype, snapshots
// it, and (warm path) runs a disposable fork WarmupSteps to populate the
// process-wide shared unit cache, so admission installs translations by
// copy. Call before Start/Admit; not safe concurrently with Admit.
func (h *Host) AddWorkload(name string) error {
	h.tmu.Lock()
	defer h.tmu.Unlock()
	if _, ok := h.protos[name]; ok {
		return nil
	}
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return fmt.Errorf("fleet: unknown workload %q", name)
	}
	bin, err := workload.Compile(prof)
	if err != nil {
		return fmt.Errorf("fleet: compile %s: %w", name, err)
	}
	cfg := h.protoConfig(prof)
	sys, err := core.New(bin, cfg)
	if err != nil {
		return fmt.Errorf("fleet: boot %s prototype: %w", name, err)
	}
	p := &proto{name: name, bin: bin, cfg: cfg, snap: sys.Snapshot()}
	if w := h.cfg.Policy.WarmupSteps; w > 0 && !h.cfg.ColdAdmission {
		wf, err := p.snap.Fork(dbt.ForkConfig{})
		if err != nil {
			return fmt.Errorf("fleet: warmup fork %s: %w", name, err)
		}
		if _, err := wf.Run(w); err != nil &&
			!errors.Is(err, dbt.ErrSecurityKill) {
			return fmt.Errorf("fleet: warmup %s: %w", name, err)
		}
	}
	h.protos[name] = p
	return nil
}

// Admit creates a tenant of the named workload and queues it on the
// host's fresh FIFO. Safe from any goroutine (the traffic generator runs
// outside the pool) until Close.
func (h *Host) Admit(name string) (*Tenant, error) {
	if h.closed.Load() {
		return nil, errors.New("fleet: admission closed")
	}
	h.tmu.RLock()
	p := h.protos[name]
	h.tmu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("fleet: workload %q not added", name)
	}
	id := h.nextID.Add(1)
	tseed := h.cfg.Seed ^ int64(id)*0x7F4A7C15
	var sys *core.System
	var err error
	if h.cfg.ColdAdmission {
		// Same seed as the prototype: the cold baseline must produce the
		// results warm forking produces, just slower. NoSharedUnits makes
		// it pay full translation, the cost warm admission avoids.
		cfg := p.cfg
		cfg.DBT.NoSharedUnits = true
		sys, err = core.New(p.bin, cfg)
	} else {
		sys, err = p.snap.Fork(dbt.ForkConfig{})
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: admit %s: %w", name, err)
	}
	h.applyPolicy(sys)
	t := &Tenant{
		id:       id,
		workload: name,
		policy:   h.cfg.Policy,
		seed:     tseed,
		proto:    p,
		admitted: time.Now(),
		sys:      sys,
		rng:      rand.New(rand.NewSource(tseed)),
	}
	h.tmu.Lock()
	h.tenants[id] = t
	h.order = append(h.order, id)
	h.tmu.Unlock()

	h.cAdmitted.Inc()
	h.pending.Add(1)
	a := h.active.Add(1)
	for {
		p := h.peak.Load()
		if a <= p || h.peak.CompareAndSwap(p, a) {
			break
		}
	}
	h.pushFresh(t)
	return t, nil
}

// applyPolicy imposes the per-tenant envelope on a freshly forked or
// booted system. MigrateProb is read by the VM at security-event time,
// so setting it here takes effect for the tenant's whole life.
func (h *Host) applyPolicy(sys *core.System) {
	if h.cfg.Mode == core.ModeHIPStR {
		sys.VM.Cfg.MigrateProb = h.cfg.Policy.MigrateProb
	}
}

// Start launches the worker pool. Admission may begin before or after.
func (h *Host) Start(ctx context.Context) {
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return
	}
	h.started = true
	h.mu.Unlock()
	h.ctx = ctx
	h.stopWake = context.AfterFunc(ctx, h.wakeAll)
	h.startNS.Store(time.Now().UnixNano())
	h.wg.Add(h.cfg.Workers)
	for i := 0; i < h.cfg.Workers; i++ {
		go h.work()
	}
}

// Close stops admission; workers drain the remaining tenants and exit.
func (h *Host) Close() {
	h.closed.Store(true)
	if h.pending.Load() == 0 {
		h.wakeAll()
	}
}

// done reports the drain condition: admission closed, nothing pending.
func (h *Host) done() bool {
	return h.closed.Load() && h.pending.Load() == 0
}

// Wait blocks until the pool drains (after Close) or ctx is canceled,
// and returns ctx's error in the latter case.
func (h *Host) Wait() error {
	h.wg.Wait()
	h.endNS.Store(time.Now().UnixNano())
	if h.stopWake != nil {
		h.stopWake()
	}
	if h.ctx != nil && h.ctx.Err() != nil && !h.done() {
		return h.ctx.Err()
	}
	return nil
}

// runSlice executes one dispatch of t.
func (h *Host) runSlice(t *Tenant) {
	start := time.Now()
	t.mu.Lock()
	t.state.Store(tenantRunning)
	retired := h.sliceContained(t)
	if !retired {
		t.state.Store(tenantQueued)
	}
	t.mu.Unlock()
	h.hSlice.Observe(float64(time.Since(start).Microseconds()))
	h.cSlices.Inc()
	if !retired {
		h.requeue(t)
	}
}

// sliceContained runs one slice of t, containing a panic raised inside
// it (guest execution, hooks): the tenant is killed with reason "panic:
// <value>" and the worker goes on draining the others. Caller holds t.mu.
func (h *Host) sliceContained(t *Tenant) (retired bool) {
	defer func() {
		if v := recover(); v != nil {
			retired = h.finalizeLocked(t, tenantKilled, fmt.Sprintf("panic: %v", v))
		}
	}()
	return h.sliceLocked(t)
}

// sliceLocked advances t by one slice. Returns true when the tenant was
// retired (finalized). Caller holds t.mu.
func (h *Host) sliceLocked(t *Tenant) bool {
	p := &t.policy
	if p.AttackProb > 0 && t.rng.Float64() < p.AttackProb {
		h.cBreaches.Inc()
		if h.breachLocked(t, "injected breach detection") {
			return true
		}
	}
	budget := p.SliceSteps
	if p.StepQuota > 0 {
		if rem := p.StepQuota - t.lifeSteps; rem < budget {
			budget = rem
		}
	}
	ran, err := t.sys.Run(budget)
	t.steps += ran
	t.lifeSteps += ran
	t.slices++
	h.cSteps.Add(ran)
	switch {
	case err != nil && errors.Is(err, dbt.ErrSecurityKill):
		h.cBreaches.Inc()
		return h.breachLocked(t, err.Error())
	case err != nil:
		return h.finalizeLocked(t, tenantKilled, err.Error())
	case t.sys.Exited():
		return h.finalizeLocked(t, tenantDone, "")
	case p.StepQuota > 0 && t.lifeSteps >= p.StepQuota:
		h.cQuota.Inc()
		return h.finalizeLocked(t, tenantDone, "")
	case ran == 0:
		return h.finalizeLocked(t, tenantKilled, "no forward progress")
	}
	return false
}

// breachLocked is the §5.3 response: kill the compromised guest and
// respawn it from the snapshot under a fresh PSR seed (O(dirty pages)),
// unless the tenant has exhausted its respawn budget. Returns true when
// the tenant was retired instead of respawned. Caller holds t.mu.
func (h *Host) breachLocked(t *Tenant, reason string) bool {
	// The event tap: breaches, respawns, and kills land in the aggregate
	// trace ring so /events and incident flight-recorder bundles carry
	// the per-tenant context of a storm, not just its counters.
	h.tel.Emit(telemetry.Event{
		Type:   telemetry.EvSecurity,
		Detail: fmt.Sprintf("tenant %d (%s): %s", t.id, t.workload, reason),
	})
	if t.respawns >= t.policy.RespawnLimit {
		return h.finalizeLocked(t, tenantKilled, "respawn limit: "+reason)
	}
	t.respawns++
	// The seed lineage is a pure function of the tenant seed and life
	// count, so respawn behavior is schedule-independent.
	newSeed := t.seed + int64(t.respawns)*0x6C62272E07BB0142
	sys, err := t.proto.snap.Respawn(newSeed, dbt.ForkConfig{})
	if err != nil {
		return h.finalizeLocked(t, tenantKilled, "respawn: "+err.Error())
	}
	h.applyPolicy(sys)
	t.sys = sys
	t.lifeSteps = 0
	h.cRespawns.Inc()
	h.tel.Emit(telemetry.Event{
		Type:   telemetry.EvRespawn,
		Detail: fmt.Sprintf("tenant %d (%s): life %d", t.id, t.workload, t.respawns+1),
	})
	return false
}

// finalizeLocked retires t: records the result digest and final metrics
// snapshot, releases the VM (the memory bound that lets thousands of
// retired tenants stay inspectable), publishes the per-tenant series,
// and settles the fleet counters. Caller holds t.mu. Always true.
func (h *Host) finalizeLocked(t *Tenant, st int32, msg string) bool {
	t.migrations = t.sys.Migrations()
	h.cMigrations.Add(t.migrations)
	t.exitCode = t.sys.ExitCode()
	t.digest = resultDigest(t.sys)
	t.errMsg = msg
	t.latency = time.Since(t.admitted)
	h.hLatency.Observe(float64(t.latency.Microseconds()))
	t.final = t.sys.Telemetry().Snapshot()
	t.sys = nil
	t.state.Store(st)
	if st == tenantDone {
		h.cCompleted.Inc()
	} else {
		h.cKilled.Inc()
		h.tel.Emit(telemetry.Event{
			Type:   telemetry.EvKill,
			Detail: fmt.Sprintf("tenant %d (%s): %s", t.id, t.workload, msg),
		})
	}
	h.active.Add(-1)
	h.publishTenantSeries(t)
	if h.pending.Add(-1) == 0 && h.closed.Load() {
		h.wakeAll()
	}
	return true
}

// publishTenantSeries exports the tenant's headline numbers as gauges
// (fleet.tenant.<id>.*) for the obsrv drill-down and /metrics scrape,
// bounded by perTenantSeries. Caller holds t.mu.
func (h *Host) publishTenantSeries(t *Tenant) {
	if t.id > perTenantSeries {
		return
	}
	h.tel.PublishSeries(
		fmt.Sprintf("fleet.tenant.%d", t.id),
		[]telemetry.SeriesPoint{{Fields: t.infoLocked().Fields}},
	)
}

// resultDigest folds the guest-visible outcome — exit status, final
// architectural state, and the complete output trace — into one FNV-1a
// word. Two runs of the same tenant must produce equal digests for the
// fleet's determinism contract to hold.
func resultDigest(sys *core.System) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	d := uint64(offset)
	f32 := func(v uint32) {
		for i := 0; i < 4; i++ {
			d = (d ^ uint64(v>>(8*i))&0xff) * prime
		}
	}
	m := sys.VM.P.M
	f32(uint32(m.ISA))
	f32(m.PC)
	for _, r := range m.Regs {
		f32(r)
	}
	f32(sys.ExitCode())
	if sys.Exited() {
		f32(1)
	} else {
		f32(0)
	}
	for _, v := range sys.VM.P.Trace {
		f32(v)
	}
	return d
}

// elapsed is host uptime: from Start to the end of Wait, or to now while
// the pool runs (0 before Start).
func (h *Host) elapsed() time.Duration {
	start := h.startNS.Load()
	if start == 0 {
		return 0
	}
	end := h.endNS.Load()
	if end == 0 {
		end = time.Now().UnixNano()
	}
	return time.Duration(end - start)
}

// rps is completed tenants per second of host uptime.
func (h *Host) rps() float64 {
	el := h.elapsed()
	if el <= 0 {
		return 0
	}
	return float64(h.cCompleted.Value()) / el.Seconds()
}

// Aggregates is the fleet-wide summary. Steals is always 0 (nothing
// steals work); it stays for the benchmark (bench/fleet.go), which still
// reads it.
type Aggregates struct {
	Workers      int           `json:"workers"`
	Admitted     uint64        `json:"admitted"`
	Completed    uint64        `json:"completed"`
	QuotaRetired uint64        `json:"quota_retired"`
	Killed       uint64        `json:"killed"`
	Breaches     uint64        `json:"breaches"`
	Respawns     uint64        `json:"respawns"`
	Migrations   uint64        `json:"migrations"`
	Steals       uint64        `json:"steals"`
	Slices       uint64        `json:"slices"`
	Steps        uint64        `json:"steps"`
	Active       int64         `json:"active"`
	ActivePeak   int64         `json:"active_peak"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	RPS          float64       `json:"rps"`
	LatencyP50us float64       `json:"latency_p50_us"`
	LatencyP99us float64       `json:"latency_p99_us"`
}

// Aggregates returns the current fleet-wide summary. Safe concurrently
// with execution (reads only atomics and the histogram sketch).
func (h *Host) Aggregates() Aggregates {
	lat := h.hLatency.Snapshot()
	return Aggregates{
		Workers:      h.cfg.Workers,
		Admitted:     h.cAdmitted.Value(),
		Completed:    h.cCompleted.Value(),
		QuotaRetired: h.cQuota.Value(),
		Killed:       h.cKilled.Value(),
		Breaches:     h.cBreaches.Value(),
		Respawns:     h.cRespawns.Value(),
		Migrations:   h.cMigrations.Value(),
		Slices:       h.cSlices.Value(),
		Steps:        h.cSteps.Value(),
		Active:       h.active.Load(),
		ActivePeak:   h.peak.Load(),
		Elapsed:      h.elapsed(),
		RPS:          h.rps(),
		LatencyP50us: lat.Quantile(0.50),
		LatencyP99us: lat.Quantile(0.99),
	}
}

// Tenants returns all tenants in admission order.
func (h *Host) Tenants() []*Tenant {
	h.tmu.RLock()
	defer h.tmu.RUnlock()
	out := make([]*Tenant, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, h.tenants[id])
	}
	return out
}

// infoLocked builds the drill-down summary. Caller holds t.mu.
func (t *Tenant) infoLocked() obsrv.TenantInfo {
	live := t.steps
	mig := t.migrations
	if t.sys != nil {
		mig = t.sys.Migrations()
	}
	return obsrv.TenantInfo{
		ID:       fmt.Sprintf("%d", t.id),
		Workload: t.workload,
		State:    stateName(t.state.Load()),
		Fields: map[string]float64{
			"steps":      float64(live),
			"slices":     float64(t.slices),
			"respawns":   float64(t.respawns),
			"migrations": float64(mig),
			"latency_us": float64(t.latency.Microseconds()),
			"exit_code":  float64(t.exitCode),
		},
	}
}

// TenantList implements obsrv.TenantSource: a summary row per tenant in
// admission order.
func (h *Host) TenantList() []obsrv.TenantInfo {
	ts := h.Tenants()
	out := make([]obsrv.TenantInfo, 0, len(ts))
	for _, t := range ts {
		t.mu.Lock()
		out = append(out, t.infoLocked())
		t.mu.Unlock()
	}
	return out
}

// TenantSnapshot implements obsrv.TenantSource: one tenant's summary
// plus its full telemetry snapshot (live registry while running, the
// frozen finalize-time snapshot afterwards).
func (h *Host) TenantSnapshot(id string) (obsrv.TenantInfo, telemetry.Snapshot, bool) {
	tid, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return obsrv.TenantInfo{}, telemetry.Snapshot{}, false
	}
	h.tmu.RLock()
	t := h.tenants[tid]
	h.tmu.RUnlock()
	if t == nil {
		return obsrv.TenantInfo{}, telemetry.Snapshot{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	info := t.infoLocked()
	snap := t.final
	if t.sys != nil {
		snap = t.sys.Telemetry().Snapshot()
	}
	return info, snap, true
}
