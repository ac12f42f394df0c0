package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json's metric dictionary.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json, found in the current directory or its parent (the
// repository root when run from bench/).
func loadBounds() (map[string]float64, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		bounds := map[string]float64{}
		for _, m := range f.EndToEnd {
			bounds[m.Name] = m.Bound
		}
		return bounds, nil
	}
	return nil, lastErr
}

// Verdicts of one (workload, end-to-end metric) pair.
const (
	agree      = "agree"
	disagree   = "disagree"
	unresolved = "unresolved"
)

// floors are absolute tolerances, in the metric's unit, below which a
// metric's relative bound does not shrink. Set-up takes well under a
// second on some workloads, where a few milliseconds of process start
// would otherwise exceed the bound.
var floors = map[string]float64{"setup_s": 0.05}

// sample is one side's values of a (workload, metric) pair.
type sample []float64

// iqr is the distance between the quartiles.
func (s sample) iqr() float64 {
	q1, q3 := quartiles(s)
	return q3 - q1
}

// spread is the distance between the quartiles as a share of the median.
func (s sample) spread() float64 { return ratio(s.iqr(), median(s)) }

// verdict compares two sides under a relative bound and an absolute
// floor: a side's tolerance is the larger of bound times its median and
// floor. The sides agree when the medians differ by at most A's tolerance
// and each side's quartile distance is within its own. Medians further
// apart disagree, unless a quartile distance exceeds its tolerance and the
// sides overlap, which leaves the pair unresolved; so does a quartile
// distance beyond its tolerance with close medians.
func verdict(a, b sample, bound, floor float64) string {
	tol := func(s sample) float64 { return math.Max(bound*math.Abs(median(s)), floor) }
	diff := math.Abs(median(b) - median(a))
	wide := a.iqr() > tol(a) || b.iqr() > tol(b)
	switch {
	case diff <= tol(a) && !wide:
		return agree
	case diff > tol(a) && (!wide || separated(a, b)):
		return disagree
	}
	return unresolved
}

// separated reports whether every value of one side lies beyond every
// value of the other.
func separated(a, b sample) bool {
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return maxA < minB || maxB < minA
}

func minMax(s sample) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range s {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// group collects each (workload, metric) pair's values across records.
func group(recs []runRecord) map[[2]string]sample {
	out := map[[2]string]sample{}
	for _, r := range recs {
		for name, m := range r.Result.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// redrawnByWorkload sums, per workload, the rejected PSR seeds of the
// records whose (workload, seed) both sets hold, so that the two sums
// cover the same inputs. A (workload, seed) run more than once counts its
// largest value.
func redrawnByWorkload(recsA, recsB []runRecord) (a, b map[string]int) {
	type key struct {
		workload string
		seed     int64
	}
	bySeed := func(recs []runRecord) map[key]int {
		out := map[key]int{}
		for _, r := range recs {
			k := key{r.Workload, r.Seed}
			out[k] = max(out[k], r.Redrawn)
		}
		return out
	}
	sa, sb := bySeed(recsA), bySeed(recsB)
	a, b = map[string]int{}, map[string]int{}
	for k, na := range sa {
		if nb, ok := sb[k]; ok {
			a[k.workload] += na
			b[k.workload] += nb
		}
	}
	return a, b
}

// compareFiles prints, for each (workload, metric) pair in both record
// sets, the two medians and spreads, their relative difference, the
// metric's bound, and a verdict for end-to-end metrics; then each
// workload's rejected PSR seeds on the seeds both sets ran. It returns 1
// when any pair disagrees or set B rejects more seeds than set A, which
// means the program runs more seeds wrongly.
func compareFiles(pathA, pathB string, w io.Writer) int {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare needs BENCHMARK.json:", err)
		return 2
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ga, gb := group(recsA), group(recsB)
	var keys [][2]string
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(w, "%-15s %-32s %12s %12s %8s %8s %8s %9s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "spreadA", "spreadB", "bound", "verdict")
	code := 0
	for _, k := range keys {
		a, b := ga[k], gb[k]
		bound, gated := bounds[k[1]]
		v, bs := "-", "-"
		if gated {
			floor := floors[k[1]]
			v, bs = verdict(a, b, bound, floor), fmt.Sprintf("%.0f%%", 100*bound)
			if floor > 0 {
				bs += fmt.Sprintf(",%g", floor)
			}
			if v == disagree {
				code = 1
			}
		}
		fmt.Fprintf(w, "%-15s %-32s %12.5g %12.5g %7.1f%% %7.1f%% %7.1f%% %9s  %s (n=%d/%d)\n",
			k[0], k[1], median(a), median(b), 100*ratio(median(b)-median(a), median(a)),
			100*a.spread(), 100*b.spread(), bs, v, len(a), len(b))
	}
	redA, redB := redrawnByWorkload(recsA, recsB)
	for _, name := range workloadNames {
		if _, ok := redA[name]; !ok {
			continue
		}
		v := agree
		if redB[name] > redA[name] {
			v, code = disagree, 1
		}
		fmt.Fprintf(w, "%-15s %-32s %12d %12d  %s\n", name, "redrawn PSR seeds", redA[name], redB[name], v)
	}
	return code
}
