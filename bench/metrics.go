package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end and per-layer lists
// below are the benchmark's metric dictionary; BENCHMARK.json at the
// repository root repeats them (plus each end-to-end bound) and a test
// keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// Every workload reports every metric: a workload that does not exercise
// a layer reports 0 for that layer's counts, ratios and shares. Every
// time-valued per-layer metric comes from the layer probes, which every
// traced run executes, or from the operations every workload has, so
// none reads a constant 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"work_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var experimentNames = []string{
	"fig3", "fig4", "table2", "fig5", "fig8", "httpd",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.unattributed_pct", "%", "lower"},
		{"bench.trace_overhead_pct", "%", "lower"},
		{"bench.op_p90_ms", "ms", "lower"},
		{"bench.op_p99_ms", "ms", "lower"},
		{"bench.ops", "count", "higher"},
		{"bench.msteps_s", "Msteps/s", "higher"},
		{"bench.redrawn_seeds", "count", "lower"},
	}
	for _, e := range experimentNames {
		defs = append(defs, metricDef{"experiments." + e + "_pct", "%", "lower"})
	}
	defs = append(defs, metricDef{"experiments.other_pct", "%", "lower"})
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_pct", "%", "lower"})
	}
	return append(defs,
		metricDef{"core.boot_us_p50", "us", "lower"},
		metricDef{"core.boot_us_p99", "us", "lower"},
		metricDef{"core.fork_us_p50", "us", "lower"},
		metricDef{"core.respawn_us_p50", "us", "lower"},
		metricDef{"machine.ns_per_step", "ns", "lower"},
		metricDef{"machine.batched_frac", "ratio", "higher"},
		metricDef{"machine.batched_frac.profiled", "ratio", "higher"},
		metricDef{"machine.blockcache_hit_ratio", "ratio", "higher"},
		metricDef{"machine.invalidations_per_mstep", "1/Mstep", "lower"},
		metricDef{"perf.ns_per_step", "ns", "lower"},
		metricDef{"perf.cycles", "cycles", "lower"},
		metricDef{"perf.cpi", "cycles/inst", "lower"},
		metricDef{"profiler.ns_per_step", "ns", "lower"},
		metricDef{"dbt.translate_cold_us_p50", "us", "lower"},
		metricDef{"dbt.translate_shared_us_p50", "us", "lower"},
		metricDef{"dbt.translations_per_mstep", "1/Mstep", "lower"},
		metricDef{"dbt.flushes_per_mstep", "1/Mstep", "lower"},
		metricDef{"dbt.shared_hit_ratio", "ratio", "higher"},
		metricDef{"migrate.us_p50", "us", "lower"},
		metricDef{"migrate.us_p99", "us", "lower"},
		metricDef{"migrate.per_mstep", "1/Mstep", "lower"},
		metricDef{"fleet.admit_us_p50", "us", "lower"},
		metricDef{"fleet.admit_us_p99", "us", "lower"},
		metricDef{"fleet.slice_us_p99", "us", "lower"},
		metricDef{"fleet.msteps_s", "Msteps/s", "higher"},
		metricDef{"fleet.respawns", "count", "lower"},
		metricDef{"fleet.killed", "count", "lower"},
		metricDef{"fleet.steals", "count", "lower"},
		metricDef{"fleet.gen_late_frac", "ratio", "lower"},
	)
}()

// layers are the modules whose self time the traced run attributes, named
// after the span tracks that cover them.
var layers = []string{"experiments", "core", "machine", "dbt", "migrate", "fleet"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line for one workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// redrawn is the recorder's rejected PSR seed count. The JSON line's
	// keys are fixed, so it is printed beside them and stored in -out
	// records.
	redrawn int
}

// fill builds the metrics map from vals for every name in defs; names
// missing from vals report 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, or 0 for no values. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method Python's statistics.quantiles(xs, n=4) uses, so the
// spreads -compare prints match that function's on the same records.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The same integer arithmetic as CPython, including its clamping of
	// the rank (not the value) for very small samples.
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
