package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipstr"
)

// TestRunList checks -list prints one line per registered experiment.
func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	exps := hipstr.Experiments()
	if len(exps) != 14 || len(lines) != len(exps) {
		t.Fatalf("-list printed %d lines for %d experiments, want 14", len(lines), len(exps))
	}
	for i, e := range exps {
		if !strings.HasPrefix(lines[i], e.Name()+" ") {
			t.Errorf("line %d = %q, want experiment %s", i, lines[i], e.Name())
		}
	}
}

// TestRunArtifacts runs one quick experiment with every file flag: the
// -out copy equals the printed report, and the result and metrics
// artifacts are written and parse.
func TestRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.txt")
	results := filepath.Join(dir, "results")
	metrics := filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-quick", "-only", "fig7", "-out", report,
		"-results-out", results, "-metrics-out", metrics,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, out.Bytes()) {
		t.Fatalf("-out file differs from the printed report:\n%s\n---\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "Figure 7") || !strings.Contains(out.String(), "\ndone.\n") {
		t.Fatalf("report lacks the figure or the done line:\n%s", out.String())
	}
	var result map[string]any
	readJSON(t, filepath.Join(results, "fig7.json"), &result)
	var snap map[string]any
	readJSON(t, metrics, &snap)
}

// TestRunOutWriteError checks a failing -out write fails the run with the
// path in the error, though the report still prints.
func TestRunOutWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-quick", "-only", "fig7", "-out", "/dev/full"}, &out)
	if err == nil || !strings.Contains(err.Error(), "/dev/full") {
		t.Fatalf("err = %v, want a write error naming /dev/full", err)
	}
	if !strings.Contains(out.String(), "Figure 7") {
		t.Fatalf("report not printed:\n%s", out.String())
	}
}

// TestRunUnknownExperiment checks -only rejects a name not in the registry.
func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-only", "nope"}, &out); err == nil {
		t.Fatal("-only nope ran")
	}
}

// TestRunListen checks the observability server starts with the run and
// shuts down cleanly when it ends.
func TestRunListen(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-quick", "-only", "fig7", "-listen", "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.HasPrefix(out.String(), "observability: serving http://127.0.0.1:") {
		t.Fatalf("no serving line:\n%s", out.String())
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
