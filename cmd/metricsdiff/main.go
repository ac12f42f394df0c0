// Command metricsdiff loads two metrics artifacts and prints their
// counters, gauges, and histogram quantiles side by side, with deltas.
// Typical use: compare the same workload under two configurations, or two
// revisions of the VM.
//
// Each input may be:
//
//   - a metrics snapshot (hipstr-run/hipstr-bench -metrics-out),
//
//   - one experiment result artifact (hipstr-bench -results-out), whose
//     series are replayed into the experiments.<name>.<label>.<field>
//     gauges the live registry publishes, plus bench.seconds.<name>,
//
//   - or a -results-out directory, merging every *.json artifact in it.
//
//     hipstr-run -workload mcf -metrics-out a.json
//     hipstr-run -workload mcf -rat 64 -metrics-out b.json
//     metricsdiff a.json b.json
//
//     hipstr-bench -quick -results-out before/
//     hipstr-bench -quick -results-out after/   # on the new revision
//     metricsdiff before/ after/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"hipstr"
	"hipstr/internal/telemetry"
)

func load(path string) (hipstr.MetricsSnapshot, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return hipstr.MetricsSnapshot{}, err
	}
	if fi.IsDir() {
		return loadResultsDir(path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return hipstr.MetricsSnapshot{}, err
	}
	return parseArtifact(path, data)
}

// parseArtifact sniffs the JSON shape: a metrics snapshot carries a
// "counters" object, a result artifact a "name".
func parseArtifact(path string, data []byte) (hipstr.MetricsSnapshot, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return hipstr.MetricsSnapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	if _, ok := probe["counters"]; ok {
		var s hipstr.MetricsSnapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	if _, ok := probe["name"]; !ok {
		return hipstr.MetricsSnapshot{}, fmt.Errorf(
			"%s: neither a metrics snapshot (-metrics-out) nor an experiment result artifact (-results-out)", path)
	}
	reg := telemetry.NewRegistry()
	if err := addResult(reg, path, data); err != nil {
		return hipstr.MetricsSnapshot{}, err
	}
	return reg.Snapshot(), nil
}

// loadResultsDir merges every *.json result artifact in dir into one
// snapshot.
func loadResultsDir(dir string) (hipstr.MetricsSnapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return hipstr.MetricsSnapshot{}, err
	}
	if len(paths) == 0 {
		return hipstr.MetricsSnapshot{}, fmt.Errorf("%s: no *.json result artifacts", dir)
	}
	sort.Strings(paths)
	reg := telemetry.NewRegistry()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return hipstr.MetricsSnapshot{}, err
		}
		if err := addResult(reg, p, data); err != nil {
			return hipstr.MetricsSnapshot{}, err
		}
	}
	return reg.Snapshot(), nil
}

// addResult replays one experiment result artifact into reg the way the
// experiment engine published it live: its series under
// experiments.<name>, and its runtime as bench.seconds.<name>.
func addResult(reg *telemetry.Registry, path string, data []byte) error {
	var res struct {
		Name    string          `json:"name"`
		Seconds float64         `json:"seconds"`
		Series  json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if res.Name == "" {
		return fmt.Errorf("%s: not an experiment result artifact (no name)", path)
	}
	if res.Series == nil {
		return fmt.Errorf("%s: result artifact has no series; regenerate it with hipstr-bench -results-out", path)
	}
	var series []telemetry.SeriesPoint
	if err := json.Unmarshal(res.Series, &series); err != nil {
		return fmt.Errorf("%s: series: %w", path, err)
	}
	reg.Gauge("bench.seconds." + res.Name).Set(res.Seconds)
	reg.PublishSeries("experiments."+res.Name, series)
	return nil
}

// keys returns the sorted union of both maps' keys.
func keys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func main() {
	all := flag.Bool("all", false, "include unchanged metrics")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: metricsdiff [-all] a.json b.json")
		os.Exit(2)
	}
	pa, pb := flag.Arg(0), flag.Arg(1)
	a, err := load(pa)
	if err != nil {
		log.Fatal(err)
	}
	b, err := load(pb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("a: %s\nb: %s\n", pa, pb)

	var counters [][4]string
	for _, k := range keys(a.Counters, b.Counters) {
		av, bv := a.Counters[k], b.Counters[k]
		if av == bv && !*all {
			continue
		}
		counters = append(counters, [4]string{k,
			fmt.Sprintf("%d", av), fmt.Sprintf("%d", bv),
			fmt.Sprintf("%+d", int64(bv)-int64(av))})
	}
	if len(counters) > 0 {
		fmt.Printf("\n== counters ==\n%-44s %14s %14s %12s\n", "name", "a", "b", "delta")
		for _, row := range counters {
			fmt.Printf("%-44s %14s %14s %12s\n", row[0], row[1], row[2], row[3])
		}
	}

	var gauges [][4]string
	for _, k := range keys(a.Gauges, b.Gauges) {
		av, bv := a.Gauges[k], b.Gauges[k]
		if av == bv && !*all {
			continue
		}
		gauges = append(gauges, [4]string{k,
			fmt.Sprintf("%.6g", av), fmt.Sprintf("%.6g", bv),
			fmt.Sprintf("%+.6g", bv-av)})
	}
	if len(gauges) > 0 {
		fmt.Printf("\n== gauges ==\n%-44s %14s %14s %12s\n", "name", "a", "b", "delta")
		for _, row := range gauges {
			fmt.Printf("%-44s %14s %14s %12s\n", row[0], row[1], row[2], row[3])
		}
	}

	printed := false
	for _, k := range keys(a.Histograms, b.Histograms) {
		ah, bh := a.Histograms[k], b.Histograms[k]
		if ah.Count == bh.Count && ah.Sum == bh.Sum && !*all {
			continue
		}
		if !printed {
			fmt.Printf("\n== histograms ==\n")
			printed = true
		}
		fmt.Printf("%s\n", k)
		fmt.Printf("  %-7s a %14s  b %14s  delta %+d\n", "count",
			fmt.Sprintf("%d", ah.Count), fmt.Sprintf("%d", bh.Count),
			int64(bh.Count)-int64(ah.Count))
		fmt.Printf("  %-7s a %14.6g  b %14.6g  delta %+.6g\n", "mean", ah.Mean, bh.Mean, bh.Mean-ah.Mean)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			aq, bq := ah.Quantile(q), bh.Quantile(q)
			fmt.Printf("  %-7s a %14.6g  b %14.6g  delta %+.6g\n",
				fmt.Sprintf("p%g", 100*q), aq, bq, bq-aq)
		}
	}
	if len(counters)+len(gauges) == 0 && !printed {
		fmt.Println("\nno differences.")
	}
}
