package fleet

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/telemetry"
)

// runFleet admits n libquantum tenants into a host built from cfg, drains
// it, and returns the host with every tenant retired.
func runFleet(t *testing.T, cfg Config, n int) *Host {
	t.Helper()
	h := NewHost(cfg)
	if err := h.AddWorkload("libquantum"); err != nil {
		t.Fatalf("AddWorkload: %v", err)
	}
	h.Start(context.Background())
	for i := 0; i < n; i++ {
		if _, err := h.Admit("libquantum"); err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
	}
	h.Close()
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return h
}

func quotaConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Policy.StepQuota = 40_000
	cfg.Policy.SliceSteps = 5_000
	cfg.Policy.WarmupSteps = 20_000
	return cfg
}

func TestFleetDrainsAndAggregates(t *testing.T) {
	const n = 24
	h := runFleet(t, quotaConfig(4), n)
	agg := h.Aggregates()
	if agg.Admitted != n {
		t.Fatalf("admitted = %d, want %d", agg.Admitted, n)
	}
	if agg.Completed+agg.Killed != n {
		t.Fatalf("completed %d + killed %d != admitted %d",
			agg.Completed, agg.Killed, n)
	}
	if agg.Active != 0 {
		t.Fatalf("active = %d after drain", agg.Active)
	}
	if agg.ActivePeak < 1 || agg.ActivePeak > n {
		t.Fatalf("active_peak = %d out of [1,%d]", agg.ActivePeak, n)
	}
	if agg.Steps == 0 || agg.Slices == 0 {
		t.Fatalf("no work recorded: %+v", agg)
	}
	if agg.RPS <= 0 {
		t.Fatalf("rps = %v, want > 0", agg.RPS)
	}
	for _, tn := range h.Tenants() {
		if !tn.Done() {
			t.Fatalf("tenant %d not retired: %s", tn.ID(), tn.State())
		}
		if tn.Steps() == 0 {
			t.Fatalf("tenant %d ran 0 steps", tn.ID())
		}
	}
	// The quota is far below libquantum's full run, so every completion
	// here is a quota retirement.
	if agg.QuotaRetired == 0 {
		t.Fatalf("expected quota retirements, got %+v", agg)
	}
	snap := h.Telemetry().Snapshot()
	if snap.Counters["fleet.admitted"] != n {
		t.Fatalf("registry fleet.admitted = %d", snap.Counters["fleet.admitted"])
	}
	if snap.Gauges["fleet.active_peak"] < 1 {
		t.Fatalf("registry fleet.active_peak = %v", snap.Gauges["fleet.active_peak"])
	}
	if snap.Histograms["fleet.latency_us"].Count != n {
		t.Fatalf("latency histogram count = %d, want %d",
			snap.Histograms["fleet.latency_us"].Count, n)
	}
}

// TestFleetDeterministicAcrossWorkers is the scheduling-independence
// contract: the same fleet (seed, policy, admission order) produces
// bit-identical per-tenant results whether one worker runs everything
// serially or four workers race and steal. Attack injection is on, so
// the respawn path is covered by the comparison too.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	const n = 16
	mk := func(workers int) Config {
		cfg := quotaConfig(workers)
		cfg.Policy.AttackProb = 0.25
		cfg.Policy.RespawnLimit = 2
		return cfg
	}
	h1 := runFleet(t, mk(1), n)
	h4 := runFleet(t, mk(4), n)
	t1, t4 := h1.Tenants(), h4.Tenants()
	if len(t1) != n || len(t4) != n {
		t.Fatalf("tenant counts: %d vs %d", len(t1), len(t4))
	}
	for i := range t1 {
		a, b := t1[i], t4[i]
		if a.Digest() != b.Digest() {
			t.Errorf("tenant %d digest: 1-worker %#x vs 4-worker %#x",
				a.ID(), a.Digest(), b.Digest())
		}
		if a.Steps() != b.Steps() {
			t.Errorf("tenant %d steps: %d vs %d", a.ID(), a.Steps(), b.Steps())
		}
		if a.Respawns() != b.Respawns() {
			t.Errorf("tenant %d respawns: %d vs %d",
				a.ID(), a.Respawns(), b.Respawns())
		}
		if a.State() != b.State() {
			t.Errorf("tenant %d state: %s vs %s", a.ID(), a.State(), b.State())
		}
	}
	a1, a4 := h1.Aggregates(), h4.Aggregates()
	if a1.Steps != a4.Steps || a1.Respawns != a4.Respawns ||
		a1.Completed != a4.Completed || a1.Killed != a4.Killed {
		t.Fatalf("aggregates diverge:\n1 worker: %+v\n4 workers: %+v", a1, a4)
	}
}

// TestFleetRespawnLimit: a tenant under certain attack burns its respawn
// budget and is then killed for good, with the reason recorded.
func TestFleetRespawnLimit(t *testing.T) {
	cfg := quotaConfig(2)
	cfg.Policy.AttackProb = 1.0
	cfg.Policy.RespawnLimit = 2
	h := runFleet(t, cfg, 4)
	agg := h.Aggregates()
	if agg.Killed != 4 || agg.Completed != 0 {
		t.Fatalf("want all 4 killed, got %+v", agg)
	}
	if agg.Respawns != 8 {
		t.Fatalf("respawns = %d, want 4 tenants x limit 2", agg.Respawns)
	}
	for _, tn := range h.Tenants() {
		if tn.State() != "killed" {
			t.Fatalf("tenant %d state %s", tn.ID(), tn.State())
		}
		if tn.Respawns() != 2 {
			t.Fatalf("tenant %d respawns %d", tn.ID(), tn.Respawns())
		}
		if !strings.Contains(tn.Err(), "respawn limit") {
			t.Fatalf("tenant %d err %q", tn.ID(), tn.Err())
		}
	}
	// The host tracer is the one source of respawn events: one per
	// respawn and one kill per retired tenant, each naming its tenant.
	want := map[string]int{}
	for _, tn := range h.Tenants() {
		want[fmt.Sprintf("respawn: tenant %d", tn.ID())] = tn.Respawns()
		want[fmt.Sprintf("kill: tenant %d", tn.ID())] = 1
	}
	got := map[string]int{}
	for _, e := range h.Telemetry().Trace.Tail(0) {
		if e.Type == telemetry.EvRespawn || e.Type == telemetry.EvKill {
			tenant, _, _ := strings.Cut(e.Detail, " (")
			got[fmt.Sprintf("%s: %s", e.Type, tenant)]++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced %v, want %v", got, want)
	}
}

// TestFleetColdAdmission: the cold baseline (fresh boot, private unit
// cache per tenant) must produce the same guest results as warm forking —
// warm admission is an optimization, not a semantic change.
func TestFleetColdVersusWarmResults(t *testing.T) {
	const n = 6
	warm := runFleet(t, quotaConfig(2), n)
	cold := quotaConfig(2)
	cold.ColdAdmission = true
	hc := runFleet(t, cold, n)
	tw, tc := warm.Tenants(), hc.Tenants()
	for i := range tw {
		if tw[i].Steps() != tc[i].Steps() {
			t.Errorf("tenant %d steps: warm %d vs cold %d",
				tw[i].ID(), tw[i].Steps(), tc[i].Steps())
		}
		if tw[i].Digest() != tc[i].Digest() {
			t.Errorf("tenant %d digest: warm %#x vs cold %#x",
				tw[i].ID(), tw[i].Digest(), tc[i].Digest())
		}
	}
}

func TestFleetAdmissionErrors(t *testing.T) {
	h := NewHost(quotaConfig(1))
	if _, err := h.Admit("libquantum"); err == nil {
		t.Fatal("Admit before AddWorkload must fail")
	}
	if err := h.AddWorkload("no-such-workload"); err == nil {
		t.Fatal("AddWorkload of unknown profile must fail")
	}
	if err := h.AddWorkload("libquantum"); err != nil {
		t.Fatalf("AddWorkload: %v", err)
	}
	h.Start(context.Background())
	if _, err := h.Admit("libquantum"); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	h.Close()
	if _, err := h.Admit("libquantum"); err == nil {
		t.Fatal("Admit after Close must fail")
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestFleetTenantSource(t *testing.T) {
	const n = 5
	h := runFleet(t, quotaConfig(2), n)
	list := h.TenantList()
	if len(list) != n {
		t.Fatalf("TenantList returned %d rows, want %d", len(list), n)
	}
	for i, info := range list {
		if info.ID == "" || info.Workload != "libquantum" {
			t.Fatalf("row %d malformed: %+v", i, info)
		}
		if info.Fields["steps"] <= 0 {
			t.Fatalf("row %d has no steps: %+v", i, info)
		}
	}
	info, snap, ok := h.TenantSnapshot(list[0].ID)
	if !ok {
		t.Fatalf("TenantSnapshot(%q) not found", list[0].ID)
	}
	if info.ID != list[0].ID {
		t.Fatalf("snapshot id %q != %q", info.ID, list[0].ID)
	}
	// A retired tenant serves its finalize-time frozen registry, which
	// must include the guest's own metrics (e.g. block-cache activity).
	if len(snap.Counters) == 0 {
		t.Fatalf("tenant snapshot has no counters")
	}
	if _, _, ok := h.TenantSnapshot("999999"); ok {
		t.Fatal("unknown tenant id must report !ok")
	}
	if _, _, ok := h.TenantSnapshot("bogus"); ok {
		t.Fatal("non-numeric tenant id must report !ok")
	}
	for _, id := range []string{"1x", "1 2", " 1", "1/metrics"} {
		if _, _, ok := h.TenantSnapshot(id); ok {
			t.Fatalf("tenant id %q with trailing or leading junk must report !ok", id)
		}
	}
	// Per-tenant series must have landed in the aggregate registry.
	reg := h.Telemetry().Snapshot()
	found := false
	for name := range reg.Gauges {
		if strings.HasPrefix(name, "fleet.tenant.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no fleet.tenant.* series published")
	}
}

// TestFleetCancel: canceling the context stops the pool even with
// admission still open, and Wait reports the cancellation.
func TestFleetCancel(t *testing.T) {
	cfg := quotaConfig(2)
	cfg.Policy.StepQuota = 0 // tenants would run for a very long time
	h := NewHost(cfg)
	if err := h.AddWorkload("libquantum"); err != nil {
		t.Fatalf("AddWorkload: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.Start(ctx)
	for i := 0; i < 4; i++ {
		if _, err := h.Admit("libquantum"); err != nil {
			t.Fatalf("Admit: %v", err)
		}
	}
	cancel()
	if err := h.Wait(); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// TestFleetContainsTenantPanic: a panic inside one tenant's slice (here a
// control hook) kills that tenant alone, with the panic as its reason and
// a kill event; the workers drain the other tenants to completion and the
// host's counters still add up.
func TestFleetContainsTenantPanic(t *testing.T) {
	const n = 4
	h := NewHost(quotaConfig(2))
	if err := h.AddWorkload("libquantum"); err != nil {
		t.Fatalf("AddWorkload: %v", err)
	}
	var victim *Tenant
	for i := 0; i < n; i++ {
		tn, err := h.Admit("libquantum")
		if err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		if i == 1 {
			victim = tn
		}
	}
	// No worker runs before Start, so the hook can be swapped unlocked.
	victim.sys.VM.P.SetControlHook(func(*machine.Machine, *isa.Inst, machine.ControlKind, uint32, uint32) (uint32, uint32, error) {
		panic("control hook exploded")
	})
	h.Start(context.Background())
	h.Close()
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for _, tn := range h.Tenants() {
		switch {
		case tn == victim:
			if tn.State() != "killed" || tn.Err() != "panic: control hook exploded" {
				t.Fatalf("victim %d: state %s err %q", tn.ID(), tn.State(), tn.Err())
			}
		case tn.State() != "done" || tn.Err() != "":
			t.Fatalf("tenant %d: state %s err %q, want done", tn.ID(), tn.State(), tn.Err())
		}
	}
	agg := h.Aggregates()
	if agg.Admitted != n || agg.Killed != 1 || agg.Completed != n-1 || agg.Active != 0 {
		t.Fatalf("aggregates do not add up: %+v", agg)
	}
	kills := 0
	for _, e := range h.Telemetry().Trace.Tail(0) {
		if e.Type == telemetry.EvKill {
			kills++
			if want := fmt.Sprintf("tenant %d (libquantum): panic: control hook exploded", victim.ID()); e.Detail != want {
				t.Fatalf("kill event %q, want %q", e.Detail, want)
			}
		}
	}
	if kills != 1 {
		t.Fatalf("%d kill events, want 1", kills)
	}
}
