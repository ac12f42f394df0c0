// Package health turns the recording observability stack into a watching
// one: a rolling history ring over periodic telemetry snapshots, a rule
// engine evaluating declarative SLO/anomaly conditions against that
// history with hysteresis, and an incident flight recorder that captures
// a forensic bundle (triggering series window, recent trace events and
// spans, top offender tenants, profiler top table, host config) the
// moment a rule fires — while the context still exists, not after the
// storm has rotated it out of the rings.
//
// Everything here runs off the snapshot path: Observe is called by the
// goroutine that already snapshots the registry (hipstr-run's run loop or
// a dedicated fleet monitor goroutine), so the guest hot path never sees a
// single extra instruction, and HTTP reads of history and incidents take
// their own locks against that one writer.
package health

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"hipstr/internal/telemetry"
)

// Bounds on a Monitor's history ring: DefaultWindowSamples rows of up to
// DefaultMaxSeries float64 columns (plus one shared name index), so the
// worst case is DefaultWindowSamples*DefaultMaxSeries*8 bytes regardless
// of how long the process runs or how many series the registry grows.
const (
	DefaultWindowSamples = 512
	DefaultMaxSeries     = 4096
)

// Point is one sample of one series.
type Point struct {
	// TimeNS is the sample's absolute wall-clock time in nanoseconds.
	TimeNS int64 `json:"t"`
	// Value is the sampled value.
	Value float64 `json:"v"`
}

// History is a bounded rolling window of flattened telemetry snapshots.
// Counters and gauges map to one series each under their metric name;
// histograms flatten to <name>.count, <name>.sum, <name>.p50 and
// <name>.p99. Storage is columnar: one shared name->column index plus a
// ring of per-sample value rows, so series names are stored once, not
// once per sample.
type History struct {
	mu        sync.RWMutex
	capacity  int
	maxSeries int
	cols      map[string]int
	names     []string
	times     []int64
	rows      [][]float64
	total     uint64 // samples appended (including rotated-out)
	dropped   uint64 // series refused by the maxSeries bound
}

// NewHistory returns a history ring keeping the last windowSamples
// snapshots across at most maxSeries distinct series.
func NewHistory(windowSamples, maxSeries int) *History {
	return &History{
		capacity:  windowSamples,
		maxSeries: maxSeries,
		cols:      make(map[string]int),
	}
}

// col returns the column index for name, creating it if the series bound
// allows; ok=false means the series was dropped. Caller holds mu.
func (h *History) col(name string) (int, bool) {
	if c, ok := h.cols[name]; ok {
		return c, true
	}
	if len(h.names) >= h.maxSeries {
		h.dropped++
		return 0, false
	}
	c := len(h.names)
	h.names = append(h.names, name)
	h.cols[name] = c
	return c, true
}

// Append flattens snap into one sample row at tsNS. It is the single
// writer; HTTP readers are safe concurrently.
func (h *History) Append(tsNS int64, snap telemetry.Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	row := make([]float64, len(h.names), len(h.names)+16)
	for i := range row {
		row[i] = math.NaN()
	}
	set := func(name string, v float64) {
		c, ok := h.col(name)
		if !ok {
			return
		}
		for len(row) <= c {
			row = append(row, math.NaN())
		}
		row[c] = v
	}
	for name, v := range snap.Counters {
		set(name, float64(v))
	}
	for name, v := range snap.Gauges {
		set(name, v)
	}
	for name, hs := range snap.Histograms {
		set(name+".count", float64(hs.Count))
		set(name+".sum", hs.Sum)
		set(name+".p50", hs.Quantile(0.50))
		set(name+".p99", hs.Quantile(0.99))
	}
	if len(h.rows) < h.capacity {
		h.times = append(h.times, tsNS)
		h.rows = append(h.rows, row)
	} else {
		at := int(h.total % uint64(h.capacity))
		h.times[at] = tsNS
		h.rows[at] = row
	}
	h.total++
}

// Len returns the number of retained samples.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.rows)
}

// Total returns the number of samples ever appended.
func (h *History) Total() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.total
}

// DroppedSeries returns how many series were refused by the MaxSeries
// bound (0 in healthy configurations; nonzero is itself a signal).
func (h *History) DroppedSeries() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.dropped
}

// Names returns every known series name, sorted.
func (h *History) Names() []string {
	h.mu.RLock()
	out := append([]string(nil), h.names...)
	h.mu.RUnlock()
	sort.Strings(out)
	return out
}

// orderedIdx returns retained sample indices oldest-first. Caller holds a
// read lock.
func (h *History) orderedIdx() []int {
	n := len(h.rows)
	idx := make([]int, 0, n)
	if n < h.capacity {
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	start := int(h.total % uint64(h.capacity))
	for i := 0; i < n; i++ {
		idx = append(idx, (start+i)%n)
	}
	return idx
}

// Series returns the retained points of one series oldest-first, skipping
// samples where the series was absent. nil means the series is unknown.
func (h *History) Series(name string) []Point {
	return h.SeriesWindow(name, 0, math.MaxInt64)
}

// SeriesWindow returns the series points with fromNS <= t <= toNS,
// oldest-first.
func (h *History) SeriesWindow(name string, fromNS, toNS int64) []Point {
	h.mu.RLock()
	defer h.mu.RUnlock()
	c, ok := h.cols[name]
	if !ok {
		return nil
	}
	var out []Point
	for _, i := range h.orderedIdx() {
		t := h.times[i]
		if t < fromNS || t > toNS {
			continue
		}
		row := h.rows[i]
		if c >= len(row) || math.IsNaN(row[c]) {
			continue
		}
		out = append(out, Point{TimeNS: t, Value: row[c]})
	}
	return out
}

// Latest returns the most recent value of the series; ok=false when the
// series is unknown or has no retained sample.
func (h *History) Latest(name string) (Point, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	c, ok := h.cols[name]
	if !ok {
		return Point{}, false
	}
	idx := h.orderedIdx()
	for i := len(idx) - 1; i >= 0; i-- {
		row := h.rows[idx[i]]
		if c < len(row) && !math.IsNaN(row[c]) {
			return Point{TimeNS: h.times[idx[i]], Value: row[c]}, true
		}
	}
	return Point{}, false
}

// Rate returns the counter-reset-safe per-second rate of the series over
// the window ending at nowNS: positive deltas accumulate normally and a
// decrease is treated as a reset (the Prometheus convention — the new
// value counts as growth from zero, which is exactly what a fleet respawn
// or VM reboot looks like). ok=false when the window holds fewer than two
// samples.
func (h *History) Rate(name string, window time.Duration, nowNS int64) (float64, bool) {
	pts := h.SeriesWindow(name, nowNS-window.Nanoseconds(), nowNS)
	if len(pts) < 2 {
		return 0, false
	}
	var inc float64
	for i := 1; i < len(pts); i++ {
		d := pts[i].Value - pts[i-1].Value
		if d < 0 { // counter reset
			d = pts[i].Value
		}
		inc += d
	}
	el := float64(pts[len(pts)-1].TimeNS-pts[0].TimeNS) / 1e9
	if el <= 0 {
		return 0, false
	}
	return inc / el, true
}

// Deriv returns the signed per-second slope of the series over the window
// ((last-first)/elapsed) — the gauge-domain rate-of-change, where a
// decrease really is a decrease, not a counter reset.
func (h *History) Deriv(name string, window time.Duration, nowNS int64) (float64, bool) {
	pts := h.SeriesWindow(name, nowNS-window.Nanoseconds(), nowNS)
	if len(pts) < 2 {
		return 0, false
	}
	el := float64(pts[len(pts)-1].TimeNS-pts[0].TimeNS) / 1e9
	if el <= 0 {
		return 0, false
	}
	return (pts[len(pts)-1].Value - pts[0].Value) / el, true
}

// BurnFraction returns the fraction of window samples where the series
// breaches threshold in direction op (the SLO burn measure), and the
// number of samples considered.
func (h *History) BurnFraction(name string, window time.Duration, nowNS int64, op Op, threshold float64) (float64, int) {
	pts := h.SeriesWindow(name, nowNS-window.Nanoseconds(), nowNS)
	if len(pts) == 0 {
		return 0, 0
	}
	bad := 0
	for _, p := range pts {
		if op.breaches(p.Value, threshold) {
			bad++
		}
	}
	return float64(bad) / float64(len(pts)), len(pts)
}

// QuerySeries is one series in a history query result.
type QuerySeries struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// QueryResult is the JSON shape served at /history.
type QueryResult struct {
	Samples uint64        `json:"samples"`
	Series  []QuerySeries `json:"series,omitempty"`
	Names   []string      `json:"names,omitempty"`
}

// Query resolves a /history request: the named series limited to the last
// maxPoints points each (0 = all), or, with no names, the series index.
func (h *History) Query(names []string, maxPoints int) QueryResult {
	res := QueryResult{Samples: h.Total()}
	if len(names) == 0 {
		res.Names = h.Names()
		return res
	}
	for _, name := range names {
		pts := h.Series(name)
		if maxPoints > 0 && len(pts) > maxPoints {
			pts = pts[len(pts)-maxPoints:]
		}
		res.Series = append(res.Series, QuerySeries{Name: name, Points: pts})
	}
	return res
}

// fmtValue renders a series value compactly for incident summaries.
func fmtValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
