package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as a paper-suite child, as the
// benchmark binary does: the parent re-executes its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := runSuiteChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "paper-suite child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestMedianAndPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{}, 99, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5}, // even count: mean of the middle two
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 90, 4.6},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{4, 1, 3, 2}
	if median(xs); xs[0] != 4 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in CPython.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1.5, 2.25, 9, 4}, 1.875, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles(nil); q1 != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v, %v", q1, q3)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestDictionaryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkFile
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	setupBound, maxOther := 0.0, 0.0
	for i, m := range bj.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = math.Max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, perLayer[i])
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
}

// fakeClock is a clock the test advances by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopChargesStallToLaterTenants(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	ms := time.Millisecond
	offsets := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms, 100 * ms}
	arrivals := openLoop(offsets, clk, func(i int) {
		clk.t = clk.t.Add(ms)
		if i == 1 {
			clk.t = clk.t.Add(45 * ms) // a stalled admission
		}
	})
	// Due-time accounting: each tenant waits for the stall until the
	// generator catches up, although each admit itself takes 1 ms.
	wantWait := []time.Duration{1 * ms, 46 * ms, 37 * ms, 28 * ms, 19 * ms, 1 * ms}
	for i, a := range arrivals {
		if got := dueToRetire(a, 0); got != wantWait[i] {
			t.Errorf("tenant %d waited %v from its due time, want %v", i, got, wantWait[i])
		}
		if i >= 2 && i <= 4 && a.issued.Sub(a.due) <= 0 {
			t.Errorf("tenant %d was issued on time despite the stall", i)
		}
		if got := a.returned.Sub(a.issued); got != ms && i != 1 {
			t.Errorf("tenant %d: admit took %v", i, got)
		}
	}
	if got := dueToRetire(arrivals[2], 5*ms); got != 42*ms {
		t.Errorf("due-to-retire with 5 ms of service = %v, want 42ms", got)
	}
}

func TestTamperedGoldenIsCounted(t *testing.T) {
	jobs := []*guestJob{
		{name: "a/x86#0", seed: 7, ref: jobRun{Steps: 10, Instrs: 10, Cycles: 12.5}},
		{name: "a/arm#0", seed: 9, ref: jobRun{Steps: 20, Instrs: 20, Cycles: 30.25}},
	}
	g := guestGoldenOf(jobs)
	rec := &recorder{}
	g.check(jobs, rec)
	if rec.failed != 0 {
		t.Fatalf("untampered guest golden: %d failures", rec.failed)
	}
	e := g.Jobs["a/arm#0"]
	e.Cycles = math.Nextafter(e.Cycles, 100)
	g.Jobs["a/arm#0"] = e
	g.check(jobs, rec)
	if rec.failed != 1 {
		t.Errorf("one-ulp cycle change: %d failures, want 1", rec.failed)
	}

	fold := func(digest uint64) *folder {
		f := newFolder()
		for i := 1; i <= 200; i++ {
			f.add(uint64(i), "libquantum", "done", digest+uint64(i), i%3)
		}
		return f
	}
	fg := fleetGoldenOf(fold(1), fold(1))
	rec = &recorder{}
	fg.check(fold(1), fold(1), rec)
	if rec.failed != 0 {
		t.Fatalf("untampered fleet golden: %d failures", rec.failed)
	}
	fg.check(fold(2), fold(1), rec)
	if rec.failed != 2 { // both open-loop checkpoints (100, 200)
		t.Errorf("tampered open-loop tenants: %d failures, want 2", rec.failed)
	}
	fg.Drain.Respawns++
	rec = &recorder{}
	fg.check(fold(1), fold(1), rec)
	if rec.failed != 1 {
		t.Errorf("tampered drain respawn count: %d failures, want 1", rec.failed)
	}
}

func TestTamperedTablesAreCounted(t *testing.T) {
	w := &suiteWorkload{golden: "aa"}
	rec := &recorder{}
	first := ""
	w.checkTables("aa", &first, rec)
	w.checkTables("aa", &first, rec)
	if rec.failed != 0 {
		t.Fatalf("matching tables: %d failures", rec.failed)
	}
	w.checkTables("bb", &first, rec) // differs from the first child and the golden
	if rec.failed != 2 {
		t.Errorf("tampered tables: %d failures, want 2", rec.failed)
	}
}

func TestVerdict(t *testing.T) {
	base := sample{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := func(f float64) sample {
		out := make(sample, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := sample{70, 130, 90, 110, 100, 60, 140, 100, 95, 105}
	for _, c := range []struct {
		a, b sample
		want string
	}{
		{base, shifted(1.03), agree},
		{base, shifted(1.2), disagree},
		{base, shifted(0.8), disagree},
		{base, noisy, unresolved},
		{noisy, shifted(1.5), disagree}, // fully separated despite the spread
	} {
		if got := verdict(c.a, c.b, 0.1, 0); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	// A short set-up: 30% quartile spreads and a 9% shift, which only the
	// absolute floor resolves; a shift beyond the floor still disagrees.
	setupA := sample{0.047, 0.053, 0.054, 0.056, 0.057, 0.058, 0.066, 0.068, 0.071, 0.079}
	setupB := sample{0.050, 0.052, 0.056, 0.058, 0.062, 0.066, 0.069, 0.075, 0.078, 0.079}
	if got := verdict(setupA, setupB, 0.25, 0); got != unresolved {
		t.Errorf("setup_s without a floor: %s, want %s", got, unresolved)
	}
	if got := verdict(setupA, setupB, 0.25, 0.05); got != agree {
		t.Errorf("setup_s with a 0.05 s floor: %s, want %s", got, agree)
	}
	slower := make(sample, len(setupA))
	for i, v := range setupA {
		slower[i] = v + 0.2
	}
	if got := verdict(setupA, slower, 0.25, 0.05); got != disagree {
		t.Errorf("setup_s 0.2 s slower: %s, want %s", got, disagree)
	}
}

func TestCompareFlagsMoreRedrawnSeeds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, redrawn ...int) string {
		var recs []runRecord
		for i, n := range redrawn {
			recs = append(recs, runRecord{Workload: "guest-churn", Seed: int64(i + 1), Redrawn: n,
				Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"work_s": {Value: 1, Unit: "s"}}}})
		}
		path := dir + "/" + name
		if err := appendRecords(path, recs...); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, more := write("a.json", 2, 0, 1), write("same.json", 1, 1, 1), write("more.json", 2, 1, 1)
	var out strings.Builder
	if code := compareFiles(a, same, &out); code != 0 {
		t.Errorf("equal redraw totals: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(a, more, &out); code != 1 || !strings.Contains(out.String(), "redrawn PSR seeds") {
		t.Errorf("more redrawn seeds: exit %d, want 1\n%s", code, out.String())
	}
}

// tinyGuests is a guest set small enough for a smoke test.
var tinyGuests = guestSet{profiles: []string{"libquantum"}, cacheBytes: 2 << 20, seedsPerJob: 1, workIters: 2}

// TestWorkloadSmoke runs every workload at a tiny size, untraced and
// traced, and checks that each run is correct and reports exactly the
// dictionary's metrics, none of them a zero time or size.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	fleetW := &fleetWorkload{profiles: []string{"libquantum"}, quota: 20_000, rate: 400, batch: 20}
	for _, c := range []struct {
		name string
		w    runner
	}{
		{"paper-suite", &suiteWorkload{quick: true, only: "fig7", probes: tinyGuests}},
		{"guest", &guestWorkload{name: "guest", set: tinyGuests, setupReps: 2}},
		{"fleet", fleetW},
	} {
		for _, traced := range []bool{false, true} {
			opt := runOptions{seed: 3, budget: 200 * time.Millisecond, traced: traced,
				traceOut: t.TempDir() + "/trace.json"}
			res, err := c.w.run(opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", c.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted %d failed %d", c.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", c.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: missing %s", c.name, traced, d.Name)
				case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v %s", c.name, traced, d.Name, m.Value, m.Unit)
				case isTime(d.Unit) && m.Value <= 0 && !isDifference(d.Name):
					t.Errorf("%s traced=%v: time %s = %v", c.name, traced, d.Name, m.Value)
				}
			}
			if traced {
				checkChromeTrace(t, opt.traceOut)
			}
		}
	}
}

// isDifference reports the metrics that are differences of two timings,
// which noise can make negative on jobs as small as the smoke test's.
func isDifference(name string) bool {
	return name == "perf.ns_per_step" || name == "profiler.ns_per_step"
}

func isTime(unit string) bool {
	switch unit {
	case "s", "ms", "us", "ns", "MB":
		return true
	}
	return false
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("%s: not a Chrome trace with events (%v)", path, err)
	}
}
