package obsrv_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

func testOptions(tel *telemetry.Telemetry) obsrv.Options {
	return obsrv.Options{
		Snapshot: func() (telemetry.Snapshot, bool) { return tel.Snapshot(), true },
		Tracer:   tel.Trace,
	}
}

func TestEndpoints(t *testing.T) {
	tel := telemetry.New()
	tel.Reg.Counter("dbt.translations.x86").Add(42)
	tel.Reg.Gauge("perf.x86.cpi").Set(1.5)
	h := obsrv.NewHandler(testOptions(tel))
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || !strings.HasPrefix(body, "ok\n") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "dbt_translations_x86 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE dbt_translations_x86 counter") {
		t.Errorf("/metrics missing TYPE line:\n%s", body)
	}
	code, body = get("/stats.json")
	if code != 200 || !strings.Contains(body, `"dbt.translations.x86": 42`) {
		t.Errorf("/stats.json = %d:\n%s", code, body)
	}
	if code, _ := get("/profile"); code != http.StatusNotFound {
		t.Errorf("/profile without profiler = %d, want 404", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/nosuch"); code != http.StatusNotFound {
		t.Errorf("/nosuch = %d", code)
	}
}

// fakeTenants is a minimal TenantSource: two fixed guests, one with a
// private registry carrying a single counter.
type fakeTenants struct{ reg *telemetry.Registry }

func (f *fakeTenants) TenantList() []obsrv.TenantInfo {
	return []obsrv.TenantInfo{
		{ID: "1", Workload: "libquantum", State: "done",
			Fields: map[string]float64{"steps": 40000, "respawns": 1}},
		{ID: "2", Workload: "httpd", State: "running"},
	}
}

func (f *fakeTenants) TenantSnapshot(id string) (obsrv.TenantInfo, telemetry.Snapshot, bool) {
	if id != "1" {
		return obsrv.TenantInfo{}, telemetry.Snapshot{}, false
	}
	return f.TenantList()[0], f.reg.Snapshot(), true
}

func TestTenantEndpoints(t *testing.T) {
	tel := telemetry.New()
	src := &fakeTenants{reg: telemetry.NewRegistry()}
	src.reg.Counter("dbt.translations.x86").Add(7)
	opts := testOptions(tel)
	opts.Tenants = src
	h := obsrv.NewHandler(opts)
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/tenants")
	if code != 200 {
		t.Fatalf("/tenants = %d", code)
	}
	if !strings.Contains(body, `"count": 2`) && !strings.Contains(body, `"count":2`) {
		t.Errorf("/tenants missing count:\n%s", body)
	}
	for _, want := range []string{`"libquantum"`, `"httpd"`, `"running"`, `"steps"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/tenants missing %s:\n%s", want, body)
		}
	}
	code, body = get("/tenants/1")
	if code != 200 {
		t.Fatalf("/tenants/1 = %d", code)
	}
	if !strings.Contains(body, `"dbt.translations.x86":7`) {
		t.Errorf("/tenants/1 missing private counter:\n%s", body)
	}
	if !strings.Contains(body, `"respawns"`) {
		t.Errorf("/tenants/1 missing tenant fields:\n%s", body)
	}
	if code, _ := get("/tenants/99"); code != http.StatusNotFound {
		t.Errorf("/tenants/99 = %d, want 404", code)
	}

	// Without a source the drill-down is absent, not empty.
	h2 := obsrv.NewHandler(testOptions(tel))
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/tenants without source = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsBeforeFirstPublish(t *testing.T) {
	mon := health.NewMonitor(health.Config{})
	h := obsrv.NewHandler(obsrv.Options{Snapshot: mon.Latest})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-observe /metrics = %d, want 503", resp.StatusCode)
	}
	mon.Observe(0, telemetry.NewRegistry().Snapshot())
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-observe /metrics = %d", resp.StatusCode)
	}
}

// TestSSEDropOldest pins the never-block contract /events relies on: the
// tracer ring absorbs unbounded emission by discarding its oldest events,
// and a reader whose cursor fell behind learns how many it lost.
func TestSSEDropOldest(t *testing.T) {
	tr := telemetry.NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.Emit(telemetry.Event{Type: telemetry.EvTranslate})
	}
	events, dropped := tr.Since(0)
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d: seq %d, want %d (oldest must go first)", i, e.Seq, want)
		}
	}
	// A caught-up cursor reads nothing.
	if events, dropped = tr.Since(10); len(events) != 0 || dropped != 0 {
		t.Errorf("Since(10) = %d events, %d dropped", len(events), dropped)
	}
}

// TestSSEStream runs a real SSE request end to end: ring backlog first,
// then live events, ordered by sequence number without duplicates.
func TestSSEStream(t *testing.T) {
	tel := telemetry.New()
	tel.Trace.Emit(telemetry.Event{Type: telemetry.EvTranslate, ISA: "x86", Addr: 0x1000})
	tel.Trace.Emit(telemetry.Event{Type: telemetry.EvRATMiss, ISA: "x86"})
	h := obsrv.NewHandler(testOptions(tel))
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// A live event emitted after connect must also arrive.
	tel.Trace.Emit(telemetry.Event{Type: telemetry.EvMigrateEnd, ISA: "arm", Cost: 9})

	sc := bufio.NewScanner(resp.Body)
	var ids []string
	for sc.Scan() && len(ids) < 3 {
		if strings.HasPrefix(sc.Text(), "id: ") {
			ids = append(ids, strings.TrimPrefix(sc.Text(), "id: "))
		}
	}
	if fmt.Sprint(ids) != "[1 2 3]" {
		t.Errorf("SSE ids = %v, want [1 2 3]", ids)
	}
}

// TestServerShutdown checks that Start serves, and that Close returns nil
// with an SSE stream still open, after which the port refuses connections.
func TestServerShutdown(t *testing.T) {
	tel := telemetry.New()
	srv, err := obsrv.Start("127.0.0.1:0", testOptions(tel))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Hold an SSE stream open across the shutdown.
	sseResp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with an SSE stream open")
	}
	if conn, err := net.Dial("tcp", srv.Addr()); err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after Close", srv.Addr())
	}
}

// TestWriteFile checks that WriteFile leaves the written bytes behind and
// names the path in every error it returns.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := obsrv.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "artifact\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "artifact\n" {
		t.Fatalf("read back %q, %v", b, err)
	}
	boom := errors.New("boom")
	err := obsrv.WriteFile(path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), path) {
		t.Fatalf("write error = %v, want boom naming %s", err, path)
	}
	missing := filepath.Join(path, "sub", "out.txt")
	err = obsrv.WriteFile(missing, func(io.Writer) error { return nil })
	if err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("create error = %v, want one naming %s", err, missing)
	}
}
