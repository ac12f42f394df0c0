package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
