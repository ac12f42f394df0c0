package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

	"hipstr/internal/telemetry"
)

// TestRunQuietFleet drains a small attack-free fleet with a fast status
// ticker. Every guest retires, the health engine opens nothing, and the
// status goroutine is stopped before the summary prints: run's stdout is
// an unsynchronized buffer, so under -race any status line written
// alongside the summary is a reported race, and none may follow it.
//
// The fleet must meet its own latency objective for "opens nothing" to
// hold: at a 100k-step quota a race-built drain beside another CPU-heavy
// package took 5.6-6.7 s on 2 vCPUs, past latency-slo-burn's 2 s p99,
// and that rule rightly opened an incident. A 10k-step quota keeps the
// drain well inside it.
func TestRunQuietFleet(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workloads", "libquantum", "-guests", "150", "-quota", "10000",
		"-attack-prob", "0", "-seed", "11", "-report", "10ms", "-metrics-out", metrics,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	b, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	c := snap.Counters
	if c["fleet.admitted"] != 150 || c["fleet.completed"]+c["fleet.killed"] != 150 {
		t.Errorf("admitted %d, completed %d, killed %d; want 150 admitted, all retired",
			c["fleet.admitted"], c["fleet.completed"], c["fleet.killed"])
	}

	stdout := out.String()
	if !strings.Contains(stdout, "  health: 0 incidents opened,") {
		t.Errorf("quiet fleet opened incidents:\n%s", stdout)
	}
	status := strings.Index(stdout, "fleet: admitted ")
	summary := strings.Index(stdout, "fleet complete: ")
	if status < 0 || summary < 0 {
		t.Fatalf("want status lines and a summary:\n%s", stdout)
	}
	if strings.Contains(stdout[summary:], "fleet: admitted ") {
		t.Errorf("status line printed after the summary:\n%s", stdout[summary:])
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

// TestRunServesDrainedFleet lingers a drained quiet fleet behind -listen
// and reads what its server reports: ready, every guest retired, and the
// fleet aggregates and per-tenant series in /metrics. Canceling the
// context then ends the run cleanly.
func TestRunServesDrainedFleet(t *testing.T) {
	const guests = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-workloads", "libquantum", "-guests", strconv.Itoa(guests), "-quota", "10000",
			"-attack-prob", "0", "-seed", "11", "-report", "0",
			"-listen", "127.0.0.1:0", "-linger",
		}, &out)
	}()
	deadline := time.Now().Add(2 * time.Minute)
	for !strings.Contains(out.String(), "drain complete") {
		select {
		case err := <-done:
			t.Fatalf("run returned %v before the drain completed:\n%s", err, out.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no drain after 2m:\n%s", out.String())
		}
	}
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

	if code, body := get("/readyz"); code != http.StatusOK ||
		!strings.HasPrefix(body, "ready\n") || !strings.Contains(body, "fleet prototypes warmed") {
		t.Errorf("/readyz = %d %q, want 200, ready, prototypes warmed", code, body)
	}
	retired := fmt.Sprintf("%d/%d retired", guests, guests)
	if _, body := get("/healthz"); !strings.Contains(body, retired) {
		t.Errorf("/healthz = %q, want %q", body, retired)
	}
	_, prom := get("/metrics")
	if !regexp.MustCompile(fmt.Sprintf(`(?m)^fleet_admitted %d$`, guests)).MatchString(prom) {
		t.Errorf("/metrics lacks fleet_admitted %d", guests)
	}
	if rps := regexp.MustCompile(`(?m)^fleet_rps (\S+)$`).FindStringSubmatch(prom); rps == nil {
		t.Error("/metrics lacks fleet_rps")
	} else if v, err := strconv.ParseFloat(rps[1], 64); err != nil || v <= 0 {
		t.Errorf("fleet_rps = %s, want > 0", rps[1])
	}
	if !regexp.MustCompile(`(?m)^fleet_tenant_`).MatchString(prom) {
		t.Error("/metrics has no fleet_tenant_ series")
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
}

func TestRunUnknownMode(t *testing.T) {
	err := run(context.Background(), []string{"-mode", "native"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"native"`) {
		t.Fatalf("run -mode native = %v, want an unknown-mode error", err)
	}
}
