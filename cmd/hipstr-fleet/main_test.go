package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func TestRunUnknownMode(t *testing.T) {
	err := run(context.Background(), []string{"-mode", "native"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"native"`) {
		t.Fatalf("run -mode native = %v, want an unknown-mode error", err)
	}
}
