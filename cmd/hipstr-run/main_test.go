package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hipstr/internal/health"
	"hipstr/internal/telemetry"
)

// TestRunArtifacts drives a protected run with every artifact flag and
// checks each file: the timeline's migrations are fully costed by their
// phase spans, every trace line is JSON, the metrics snapshot carries the
// single-VM health rules' series, and the folded profile has stacks.
func TestRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-mode", "hipstr", "-steps", "3000000", "-report-interval", "0",
		"-trace-out", path("trace.jsonl"), "-timeline-out", path("timeline.json"),
		"-metrics-out", path("metrics.json"), "-profile-out", path("profile.folded"),
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	readJSON(t, path("timeline.json"), &doc)
	// pid 1 is the wall-clock process; pid 2 repeats the spans on the
	// guest-cycle axis and would double-count costs here.
	names := map[string]bool{}
	childCost := map[float64]float64{}
	var migrations []map[string]any
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.PID != 1 {
			continue
		}
		names[e.Name] = true
		if parent, ok := e.Args["parent"].(float64); ok {
			cost, _ := e.Args["cost_us"].(float64)
			childCost[parent] += cost
		}
		if e.Name == "migrate" {
			migrations = append(migrations, e.Args)
		}
	}
	if !names["translate"] || !names["migrate"] {
		t.Fatalf("timeline spans %v lack translate or migrate", names)
	}
	// Per-phase children must account for >= 99% of each migration's cost.
	for _, m := range migrations {
		id, _ := m["id"].(float64)
		cost, _ := m["cost_us"].(float64)
		if child := childCost[id]; child < 0.99*cost {
			t.Errorf("migration %v: phases cost %.3f us of %.3f us", id, child, cost)
		}
	}

	f, err := os.Open(path("trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("trace line %d is not JSON: %s", lines+1, sc.Text())
		}
	}
	if lines == 0 {
		t.Fatal("trace is empty")
	}

	var snap telemetry.Snapshot
	readJSON(t, path("metrics.json"), &snap)
	for _, r := range health.VMRules() {
		_, counter := snap.Counters[r.Series]
		_, gauge := snap.Gauges[r.Series]
		if !counter && !gauge {
			t.Errorf("metrics snapshot lacks %s, which rule %s reads", r.Series, r.Name)
		}
	}

	if st, err := os.Stat(path("profile.folded")); err != nil || st.Size() == 0 {
		t.Fatalf("folded profile: %v, %v", st, err)
	}
}

// TestRunListen: a scripted -listen run serves, finishes, and returns
// without waiting for a signal.
func TestRunListen(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-linger=false", "-steps", "300000", "-report-interval", "0",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "observability: serving http://127.0.0.1:") {
		t.Fatalf("no serving line in:\n%s", out.String())
	}
}

// lockedBuffer is a stdout run can write while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServesObservability lingers a profiled protected run behind
// -listen and reads what its server reports while the run starts and
// after it ends: liveness, block-cache hits that grow over the run, the
// translation, shared-cache and copy-on-write series, fused pairs and
// batched blocks under the profiler, the translation-latency histogram,
// the JSON snapshot, the folded and top profiles, and SSE event ids.
// Canceling the context then ends the run and writes the folded profile.
func TestRunServesObservability(t *testing.T) {
	profile := filepath.Join(t.TempDir(), "profile.folded")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-workload", "libquantum", "-steps", "30000000", "-report-interval", "5000000",
			"-listen", "127.0.0.1:0", "-linger", "-profile-out", profile,
		}, &out)
	}()
	waitFor := func(line string) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for !strings.Contains(out.String(), line) {
			select {
			case err := <-done:
				t.Fatalf("run returned %v before %q:\n%s", err, line, out.String())
			case <-time.After(5 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %q after 1m:\n%s", line, out.String())
			}
		}
	}
	waitFor("observability: serving ")
	m := regexp.MustCompile(`serving (http://[^/]+)/`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no serving line in:\n%s", out.String())
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(m[1] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	hits := func(prom string) (uint64, bool) {
		v := regexp.MustCompile(`(?m)^machine_blockcache_hits (\d+)$`).FindStringSubmatch(prom)
		if v == nil {
			return 0, false
		}
		n, err := strconv.ParseUint(v[1], 10, 64)
		return n, err == nil
	}

	// The first snapshot is published just after the serving line; scrape
	// it as soon as it is there, then again once the run has finished.
	var early uint64
	for {
		code, prom := get("/metrics")
		if code == http.StatusOK {
			var ok bool
			if early, ok = hits(prom); !ok {
				t.Fatalf("first /metrics lacks machine_blockcache_hits:\n%s", prom)
			}
			break
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("/metrics = %d before the first snapshot, want 503", code)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor("run complete")

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 \"ok\\n\"", code, body)
	}
	_, prom := get("/metrics")
	late, ok := hits(prom)
	if !ok || late == 0 || late < early {
		t.Errorf("machine_blockcache_hits %d at the first scrape, %d (found %v) after the run; want > 0 and growing",
			early, late, ok)
	}
	// The history ring holds the snapshot published before the first
	// guest step, so growth over the run shows even when the first scrape
	// above came too late to see it.
	var hist struct {
		Series []struct {
			Points []struct {
				V float64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if _, body := get("/history?series=machine.blockcache.hits"); json.Unmarshal([]byte(body), &hist) != nil ||
		len(hist.Series) != 1 || len(hist.Series[0].Points) == 0 {
		t.Errorf("/history has no machine.blockcache.hits points: %s", body)
	} else if first := hist.Series[0].Points[0].V; first >= float64(late) {
		t.Errorf("machine_blockcache_hits did not grow over the run: %v before the first step, %d after", first, late)
	}
	for _, series := range []string{"dbt_translations_x86", "dbt_sharedcache_installs", "mem_cow_broken_pages"} {
		if !regexp.MustCompile(`(?m)^` + series + ` `).MatchString(prom) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
	// The profiler samples through the timing observer, so blocks must
	// still dispatch batched while it is attached.
	for _, series := range []string{"machine_fusion_pairs", "machine_fusion_blocks_batched"} {
		v := regexp.MustCompile(`(?m)^` + series + ` (\d+)$`).FindStringSubmatch(prom)
		if v == nil || v[1] == "0" {
			t.Errorf("/metrics %s = %v, want > 0", series, v)
		}
	}
	if !strings.Contains(prom, "\n# TYPE dbt_translate_latency_us_x86 histogram\n") {
		t.Error("/metrics lacks the dbt_translate_latency_us_x86 histogram")
	}
	if _, body := get("/stats.json"); !strings.Contains(body, `"counters"`) {
		t.Errorf("/stats.json lacks counters: %.200s", body)
	}
	if _, body := get("/profile"); !regexp.MustCompile(`(?m)^interpret;`).MatchString(body) {
		t.Errorf("/profile has no interpret; stack: %.200s", body)
	}
	if _, body := get("/profile?format=top&n=5"); !strings.Contains(body, "attributed") {
		t.Errorf("/profile?format=top lacks the attributed line: %.200s", body)
	}

	// /events streams the tracer ring from its oldest buffered event.
	ectx, ecancel := context.WithTimeout(ctx, 10*time.Second)
	defer ecancel()
	req, err := http.NewRequestWithContext(ectx, http.MethodGet, m[1]+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sawID := false
	for sc := bufio.NewScanner(resp.Body); !sawID && sc.Scan(); {
		sawID = strings.HasPrefix(sc.Text(), "id: ")
	}
	resp.Body.Close()
	if !sawID {
		t.Error("/events sent no id: frame")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v\n%s", err, out.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not return after cancel")
	}
	if st, err := os.Stat(profile); err != nil || st.Size() == 0 {
		t.Fatalf("folded profile: %v, %v", st, err)
	}
}

func TestRunUnknownISA(t *testing.T) {
	err := run(context.Background(), []string{"-isa", "mips"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"mips"`) {
		t.Fatalf("run -isa mips = %v, want an unknown-ISA error", err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
