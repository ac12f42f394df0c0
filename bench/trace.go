package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hipstr/internal/telemetry"
)

// chromeSpanCap bounds the spans kept for the Chrome trace. Self time is
// aggregated as spans complete, so a traced run that completes millions of
// spans (translation churn) keeps only the newest ones in memory.
const chromeSpanCap = 1 << 16

// tracer is the traced run's span recorder: an in-memory SpanTracer owned
// by the harness, plus a sink that attributes wall time to layers as
// spans complete.
type tracer struct {
	spans *telemetry.SpanTracer
	self  *selfTimer
}

func newTracer() *tracer {
	t := &tracer{spans: telemetry.NewSpanTracer(chromeSpanCap), self: &selfTimer{ns: map[string]int64{}}}
	t.spans.AddSink(t.self)
	return t
}

// start opens a span on track (a layer name); a nil tracer returns the
// inert zero Span, so untraced runs pay one nil check per call.
func (t *tracer) start(track, name string) telemetry.Span {
	if t == nil {
		return telemetry.Span{}
	}
	return t.spans.StartSpan(track, name)
}

// telemetry returns a fresh per-guest Telemetry whose span tracer is the
// harness's, so the program's existing spans (translate, cache-flush,
// migrate) land in the same recording. Nil when untraced.
func (t *tracer) telemetry() *telemetry.Telemetry {
	if t == nil {
		return nil
	}
	tel := telemetry.New()
	tel.Spans = t.spans
	return tel
}

// writeChrome writes the kept spans as a Chrome trace-event file.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, t.spans.Spans(), nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimer attributes each completed span's self time — its duration
// minus the part its child spans cover — to the layer named by its track.
// Spans of one goroutine nest, and a child completes before its parent,
// so the completed-but-unclaimed intervals form a stack ordered by start:
// when a span completes, the intervals starting inside it are exactly its
// top-level children. Cell spans run on the experiment engine's parallel
// workers and would overlap one another, so only the experiment span that
// encloses them is counted.
type selfTimer struct {
	mu    sync.Mutex
	stack []interval
	ns    map[string]int64 // self time per layer
}

type interval struct{ start, dur int64 }

// EmitSpan implements telemetry.SpanSink.
func (st *selfTimer) EmitSpan(ev telemetry.SpanEvent) {
	if ev.Name == "cell" {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	covered := int64(0)
	for len(st.stack) > 0 && st.stack[len(st.stack)-1].start >= ev.StartNS {
		covered += st.stack[len(st.stack)-1].dur
		st.stack = st.stack[:len(st.stack)-1]
	}
	st.ns[ev.Track] += max(0, ev.DurNS-covered)
	st.stack = append(st.stack, interval{ev.StartNS, ev.DurNS})
}

// layerTimes is the traced window's wall time and each layer's self time.
type layerTimes struct {
	WindowNS int64            `json:"window_ns"`
	SelfNS   map[string]int64 `json:"self_ns"`
}

// collect returns the self times recorded so far over a window of the
// given length and restarts the attribution.
func (t *tracer) collect(window time.Duration) layerTimes {
	t.self.mu.Lock()
	defer t.self.mu.Unlock()
	lt := layerTimes{WindowNS: int64(window), SelfNS: t.self.ns}
	t.self.ns = map[string]int64{}
	t.self.stack = nil
	return lt
}

// add accumulates o into lt.
func (lt *layerTimes) add(o layerTimes) {
	if lt.SelfNS == nil {
		lt.SelfNS = map[string]int64{}
	}
	lt.WindowNS += o.WindowNS
	for k, v := range o.SelfNS {
		lt.SelfNS[k] += v
	}
}

// shares writes each layer's self-time share of the window, and the
// residual no layer span covers (harness work between calls, and time
// under the harness's own "bench" spans), into vals.
func (lt layerTimes) shares(vals map[string]float64) {
	attributed := int64(0)
	for _, l := range layers {
		vals[l+".self_pct"] = 100 * ratio(float64(lt.SelfNS[l]), float64(lt.WindowNS))
		attributed += lt.SelfNS[l]
	}
	vals["bench.unattributed_pct"] = 100 * ratio(float64(lt.WindowNS-attributed), float64(lt.WindowNS))
}

// defaultTraceOut is where a traced run writes its Chrome trace when no
// -trace-out is given: the build directory the run script also uses.
func defaultTraceOut(workload string) string {
	return filepath.Join(".bench_build", fmt.Sprintf("trace-%s.json", workload))
}
