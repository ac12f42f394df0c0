package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipstr/internal/experiments"
	"hipstr/internal/telemetry"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSnapshot(t *testing.T) {
	path := writeFile(t, t.TempDir(), "m.json",
		`{"counters":{"dbt.migrations":7},"gauges":{"dbt.cache.x86.occupancy":0.5},"histograms":{}}`)
	s, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["dbt.migrations"] != 7 {
		t.Errorf("counter = %d, want 7", s.Counters["dbt.migrations"])
	}
	if s.Gauges["dbt.cache.x86.occupancy"] != 0.5 {
		t.Errorf("gauge = %v", s.Gauges["dbt.cache.x86.occupancy"])
	}
}

// TestLoadResultArtifact checks a -results-out artifact's series replay
// into experiments.<name>.<label>.<field> gauges (label-less points one
// level up) plus the bench.seconds.<name> runtime gauge; rows are not read.
func TestLoadResultArtifact(t *testing.T) {
	path := writeFile(t, t.TempDir(), "fig9.json", `{
		"name": "fig9", "description": "overhead", "quick": true,
		"parallel": 2, "seconds": 1.25,
		"rows": [{"Bench": "ignored", "O3": 7}],
		"series": [
			{"label": "libquantum", "fields": {"o3": 0.9, "safe": 1}},
			{"label": "gcc-ref", "fields": {"perisa.x86": 1.0, "series.1": 6}},
			{"label": "", "fields": {"mean": 0.85}}
		]
	}`)
	s, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"bench.seconds.fig9":                  1.25,
		"experiments.fig9.libquantum.o3":      0.9,
		"experiments.fig9.libquantum.safe":    1,
		"experiments.fig9.gcc-ref.perisa.x86": 1.0,
		"experiments.fig9.gcc-ref.series.1":   6,
		"experiments.fig9.mean":               0.85,
	}
	for name, v := range want {
		if got := s.Gauges[name]; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if len(s.Gauges) != len(want) {
		t.Errorf("extra gauges: %v", s.Gauges)
	}
}

func TestLoadResultsDir(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "fig9.json", `{"name":"fig9","seconds":1,"rows":[],
		"series":[{"label":"mcf","fields":{"o3":0.7}}]}`)
	writeFile(t, dir, "fig7.json", `{"name":"fig7","seconds":2,"rows":null,"series":null}`)
	s, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gauges["experiments.fig9.mcf.o3"] != 0.7 {
		t.Errorf("fig9 series missing: %v", s.Gauges)
	}
	if s.Gauges["bench.seconds.fig7"] != 2 || s.Gauges["bench.seconds.fig9"] != 1 {
		t.Errorf("runtime gauges missing: %v", s.Gauges)
	}
	if len(s.Gauges) != 3 {
		t.Errorf("extra gauges: %v", s.Gauges)
	}
}

func TestLoadRejectsUnknownShape(t *testing.T) {
	dir := t.TempDir()
	if _, err := load(writeFile(t, dir, "x.json", `{"foo": 1}`)); err == nil {
		t.Error("unknown JSON shape must be rejected")
	}
	if _, err := load(writeFile(t, dir, "y.json", `not json`)); err == nil {
		t.Error("non-JSON must be rejected")
	}
	empty := t.TempDir()
	if _, err := load(empty); err == nil {
		t.Error("empty directory must be rejected")
	}
	// An artifact without series cannot be named like the live registry.
	old := t.TempDir()
	path := writeFile(t, old, "fig9.json", `{"name":"fig9","seconds":1,"rows":[{"Bench":"mcf","O3":0.7}]}`)
	for _, in := range []string{path, old} {
		if _, err := load(in); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("load(%s) = %v, want a no-series error naming %s", in, err, path)
		}
	}
}

// TestLoadMatchesLiveRegistry runs quick sweeps whose rows carry no string
// column (Fig 11's RAT sizes, Fig 13's cache sizes) through the engine and
// checks the artifacts rebuild exactly the experiments.* and
// bench.seconds.* gauges the live registry holds.
func TestLoadMatchesLiveRegistry(t *testing.T) {
	s := experiments.QuickSuite(nil)
	s.Telemetry = telemetry.New()
	exps, err := experiments.Select("fig11,fig13")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := experiments.Run(context.Background(), s, exps, experiments.Options{ResultsDir: dir}); err != nil {
		t.Fatal(err)
	}
	live := map[string]float64{}
	for name, v := range s.Telemetry.Reg.Snapshot().Gauges {
		if strings.HasPrefix(name, "experiments.") || strings.HasPrefix(name, "bench.seconds.") {
			live[name] = v
		}
	}
	got, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) < 10 {
		t.Fatalf("live registry holds only %d experiment gauges: %v", len(live), live)
	}
	for name, v := range live {
		if g, ok := got.Gauges[name]; !ok || g != v {
			t.Errorf("%s: artifact %v (present=%v), live %v", name, g, ok, v)
		}
	}
	for name := range got.Gauges {
		if _, ok := live[name]; !ok {
			t.Errorf("%s rebuilt from the artifacts but absent from the live registry", name)
		}
	}
}
