package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

func TestParseSeries(t *testing.T) {
	specs := parseSeries("fleet.active, rate:fleet.respawns ,,x")
	if len(specs) != 3 {
		t.Fatalf("parsed %d specs: %+v", len(specs), specs)
	}
	if specs[0] != (seriesSpec{name: "fleet.active"}) {
		t.Fatalf("spec 0: %+v", specs[0])
	}
	if specs[1] != (seriesSpec{name: "fleet.respawns", rate: true}) {
		t.Fatalf("spec 1: %+v", specs[1])
	}
	if specs[1].label() != "fleet.respawns/s" || specs[0].label() != "fleet.active" {
		t.Fatalf("labels: %q %q", specs[0].label(), specs[1].label())
	}
}

func TestTransformRateResetSafe(t *testing.T) {
	spec := seriesSpec{name: "c", rate: true}
	pts := []health.Point{
		{TimeNS: 0, Value: 100},
		{TimeNS: 1e9, Value: 200}, // +100/s
		{TimeNS: 2e9, Value: 30},  // reset: counts as +30/s
		{TimeNS: 3e9, Value: 50},  // +20/s
	}
	out := spec.transform(pts, 10)
	if len(out) != 3 {
		t.Fatalf("rate points: %+v", out)
	}
	for i, want := range []float64{100, 30, 20} {
		if out[i].Value != want {
			t.Fatalf("rate[%d]=%v, want %v", i, out[i].Value, want)
		}
	}
	// Non-rate specs only window.
	raw := seriesSpec{name: "g"}.transform(pts, 2)
	if len(raw) != 2 || raw[0].Value != 30 {
		t.Fatalf("windowed raw: %+v", raw)
	}
}

func TestSparkline(t *testing.T) {
	pts := []health.Point{{Value: 0}, {Value: 50}, {Value: 100}}
	got := sparkline(pts, 5)
	runes := []rune(got)
	if len(runes) != 5 {
		t.Fatalf("width: %d runes (%q)", len(runes), got)
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("scaling: %q", got)
	}
	if runes[3] != ' ' || runes[4] != ' ' {
		t.Fatalf("padding: %q", got)
	}
	// Flat series renders mid-height, not bottom.
	flat := []rune(sparkline([]health.Point{{Value: 7}, {Value: 7}}, 2))
	if flat[0] != '▄' || flat[1] != '▄' {
		t.Fatalf("flat: %q", string(flat))
	}
	if empty := sparkline(nil, 3); empty != "   " {
		t.Fatalf("empty: %q", empty)
	}
}

// testServer builds an httptest server with the endpoint set hipstr-top
// polls, backed by a real health monitor, evaluating rules, over a real
// registry.
func testServer(t *testing.T, rules ...health.Rule) *httptest.Server {
	t.Helper()
	tel := telemetry.New()
	tel.Gauge("fleet.active").Set(12)
	tel.Gauge("fleet.rps").Set(340.5)
	tel.Counter("fleet.respawns").Add(9)

	mon := health.NewMonitor(health.Config{Rules: rules, Telemetry: tel})
	for i := 0; i < 4; i++ {
		mon.Observe(int64(i)*1e9, tel.Snapshot())
	}

	opts := obsrv.Options{
		Snapshot:  func() (telemetry.Snapshot, bool) { return tel.Snapshot(), true },
		History:   mon.HistoryHandler(),
		Incidents: mon.Recorder.Handler(),
		Tenants: &fakeTenants{list: []obsrv.TenantInfo{
			{ID: "7", Workload: "libquantum", State: "running",
				Fields: map[string]float64{"steps": 9000, "respawns": 3, "latency_us": 1500}},
			{ID: "8", Workload: "bzip2", State: "done",
				Fields: map[string]float64{"steps": 80000, "respawns": 0, "latency_us": 900}},
		}},
	}
	h := obsrv.NewHandler(opts)
	return httptest.NewServer(h)
}

type fakeTenants struct{ list []obsrv.TenantInfo }

func (f *fakeTenants) TenantList() []obsrv.TenantInfo { return f.list }
func (f *fakeTenants) TenantSnapshot(id string) (obsrv.TenantInfo, telemetry.Snapshot, bool) {
	return obsrv.TenantInfo{}, telemetry.Snapshot{}, false
}

func TestFrameAndRender(t *testing.T) {
	ts := testServer(t)
	defer ts.Close()

	cl := &client{base: ts.URL, http: ts.Client()}
	specs := parseSeries("fleet.active,rate:fleet.respawns,unknown.series")
	f, err := cl.frame(specs, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !f.statsOK {
		t.Fatal("stats not fetched")
	}
	if f.ready == "" {
		t.Fatal("readyz line empty")
	}
	if pts := f.history["fleet.active"]; len(pts) != 4 || pts[0].Value != 12 {
		t.Fatalf("gauge history: %+v", pts)
	}
	// The counter never moves across samples, so its rate is flat zero.
	if pts := f.history["fleet.respawns/s"]; len(pts) != 3 || pts[0].Value != 0 {
		t.Fatalf("rate history: %+v", pts)
	}
	if f.incidents == nil || f.incidents.Open != 0 {
		t.Fatalf("incidents: %+v", f.incidents)
	}
	if len(f.tenants) != 2 {
		t.Fatalf("tenants: %+v", f.tenants)
	}

	out := renderFrame(f, 16, 5)
	for _, want := range []string{
		"hipstr-top", "ready",
		"fleet   active 12",
		"fleet.active",
		"incidents  open 0",
		"top tenants",
		"libquantum",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Respawn sort: tenant 7 (3 respawns) outranks tenant 8 (more steps).
	if strings.Index(out, "libquantum") > strings.Index(out, "bzip2") {
		t.Fatalf("tenant ordering:\n%s", out)
	}
	// Unknown series renders nothing rather than a bogus line.
	if strings.Contains(out, "unknown.series") {
		t.Fatalf("unknown series leaked into render:\n%s", out)
	}
}

// TestFrameAgainstBareVM: a server without fleet/tenant/health endpoints
// (plain hipstr-run without -listen extras) still yields a frame.
func TestFrameAgainstBareVM(t *testing.T) {
	tel := telemetry.New()
	tel.Counter("dbt.translations.x86").Add(5)
	h := obsrv.NewHandler(obsrv.Options{
		Snapshot: func() (telemetry.Snapshot, bool) { return tel.Snapshot(), true },
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	cl := &client{base: ts.URL, http: ts.Client()}
	f, err := cl.frame(parseSeries(defaultSeries), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.incidents != nil || len(f.tenants) != 0 {
		t.Fatalf("bare VM frame grew fleet sections: %+v", f)
	}
	out := renderFrame(f, 8, 5)
	if !strings.Contains(out, "vm      translations x86 5") {
		t.Fatalf("vm fallback line missing:\n%s", out)
	}
}

// TestRunOnceShowsIncident runs the command with -once against a server
// holding an open incident: one frame, with the fleet line, the incident
// and the tenants, and no screen clearing.
func TestRunOnceShowsIncident(t *testing.T) {
	ts := testServer(t, health.Rule{Name: "active-high", Series: "fleet.active",
		Kind: health.KindThreshold, Threshold: 10})
	defer ts.Close()

	var out bytes.Buffer
	err := run(context.Background(), []string{"-addr", strings.TrimPrefix(ts.URL, "http://"), "-once"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	for _, want := range []string{
		"hipstr-top — " + ts.URL,
		"fleet   active 12",
		"incidents  open 1  opened 1  resolved 0",
		"[OPEN] #1 active-high",
		"top tenants",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\x1b[") {
		t.Fatalf("-once frame clears the screen:\n%q", frame)
	}
}

// TestRunStopsOnCancel: without -once, run clears the screen before each
// frame and returns once ctx is canceled.
func TestRunStopsOnCancel(t *testing.T) {
	ts := testServer(t)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, []string{"-addr", strings.TrimPrefix(ts.URL, "http://")}, &out); err != nil {
		t.Fatal(err)
	}
	if frame := out.String(); !strings.HasPrefix(frame, "\x1b[H\x1b[2Jhipstr-top") {
		t.Fatalf("frame does not start with a screen clear:\n%q", frame)
	}
}

// TestRunErrors: -once against an address nothing listens on returns
// the fetch error, and a non-positive -interval is rejected, not a panic.
func TestRunErrors(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(ts.URL, "http://")
	ts.Close()

	for _, args := range [][]string{
		{"-addr", addr, "-once"},
		{"-addr", addr, "-interval", "0"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("%q ran without error:\n%s", args, out.String())
		}
	}
}

func TestFmtN(t *testing.T) {
	if got := fmtN(42); got != "42" {
		t.Fatalf("fmtN(42)=%q", got)
	}
	if got := fmtN(3.14159); got != "3.14" {
		t.Fatalf("fmtN(pi)=%q", got)
	}
}
