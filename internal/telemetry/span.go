package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing records *intervals* where the event tracer records points:
// a migration is one parent span with child spans for each phase, a
// translation is one span per unit, an experiment cell is one span per
// (workload, config) pair. Every span carries two time domains —
//
//   - wall clock: nanoseconds from the host monotonic clock, measuring
//     what the simulation itself costs to run, and
//   - guest cycles: the modeled cycle counter of the traced guest,
//     measuring what the traced program experiences,
//
// plus an optional modeled-cost attribute in microseconds (the Figure 12
// cost model lives in modeled time, not in either clock). Completed spans
// land in a bounded ring and fan out to sinks, mirroring the event
// tracer's shape so obsrv and tracestat can treat both uniformly.
//
// The subsystem is strictly opt-in: a nil *SpanTracer (the default — the
// Telemetry facade leaves Spans nil unless EnableSpans is called) makes
// StartSpan return a zero Span whose methods are single-branch no-ops, so
// instrumented hot paths cost one nil check and zero allocations when
// tracing is off.

// SpanEvent is one completed span record. Durations are closed intervals
// as measured at End; a span that never ended is not recorded.
type SpanEvent struct {
	// Kind discriminates span records from point Events in mixed JSONL
	// streams; it is always "span".
	Kind string `json:"kind"`
	// ID is the span's unique sequence number; ParentID is 0 for roots.
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent,omitempty"`
	// Name is the span's phase or operation name (e.g. "migrate",
	// "transform", "translate").
	Name string `json:"name"`
	// Track groups spans onto one timeline row in exports: typically the
	// subsystem ("migrate", "dbt", "machine", "experiments").
	Track string `json:"track,omitempty"`
	// ISA optionally records the ISA the span concerns.
	ISA string `json:"isa,omitempty"`
	// StartNS/DurNS are the wall-clock start offset and duration in
	// nanoseconds, relative to the tracer's epoch.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// StartCycles/DurCycles are the guest-cycle-domain start and duration,
	// taken from the tracer's cycle source (0 when no source is attached).
	StartCycles float64 `json:"start_cycles,omitempty"`
	DurCycles   float64 `json:"dur_cycles,omitempty"`
	// CostUS is the modeled cost in microseconds attributed to this span
	// (the migration cost model's phase share), independent of both clocks.
	CostUS float64 `json:"cost_us,omitempty"`
	// Detail carries span-specific context (refusal reason, unit size...).
	Detail string `json:"detail,omitempty"`
}

// SpanSink receives every completed span.
type SpanSink interface {
	EmitSpan(SpanEvent)
}

// DefaultSpanCap is the default span ring capacity.
const DefaultSpanCap = 8192

// SpanTracer records completed spans into a bounded ring and fans them
// out to sinks. Starting a span is lock-free (an atomic ID allocation and
// a clock read); completion takes a mutex, which is fine because spans
// close on trap paths and phase boundaries, never per instruction.
type SpanTracer struct {
	epoch time.Time
	seq   atomic.Uint64

	// cycles, when non-nil, supplies the guest-cycle domain. It must be
	// safe to call from the tracing goroutine (machine step counters and
	// the perf model both are: they are only written between instructions
	// on the owning goroutine, and spans on other goroutines tolerate the
	// resulting slight skew).
	cycles func() float64

	mu    sync.Mutex
	ring  []SpanEvent
	cap   int
	total uint64
	sinks []SpanSink
}

// NewSpanTracer returns a tracer keeping the last capacity completed
// spans (<= 0 selects DefaultSpanCap).
func NewSpanTracer(capacity int) *SpanTracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanTracer{epoch: time.Now(), cap: capacity}
}

// SetCycleSource attaches the guest-cycle domain source. Pass nil to
// detach; spans then record zero cycle durations.
func (st *SpanTracer) SetCycleSource(f func() float64) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.cycles = f
	st.mu.Unlock()
}

// AddSink attaches a sink; it receives spans completed from now on.
func (st *SpanTracer) AddSink(s SpanSink) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.sinks = append(st.sinks, s)
	st.mu.Unlock()
}

// Cap returns the ring capacity.
func (st *SpanTracer) Cap() int {
	if st == nil {
		return 0
	}
	return st.cap
}

// Completed returns the total number of spans completed (including any
// that have rotated out of the ring).
func (st *SpanTracer) Completed() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// Spans returns the buffered completed spans in completion order.
func (st *SpanTracer) Spans() []SpanEvent {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SpanEvent, 0, len(st.ring))
	if len(st.ring) < st.cap {
		return append(out, st.ring...)
	}
	start := int(st.total % uint64(st.cap))
	out = append(out, st.ring[start:]...)
	return append(out, st.ring[:start]...)
}

// Tail returns the most recent n completed spans in completion order (all
// of them when n <= 0 or exceeds the buffer) — the flight-recorder tap
// mirroring Tracer.Tail.
func (st *SpanTracer) Tail(n int) []SpanEvent {
	spans := st.Spans()
	if n > 0 && len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	return spans
}

func (st *SpanTracer) readCycles() float64 {
	st.mu.Lock()
	f := st.cycles
	st.mu.Unlock()
	if f == nil {
		return 0
	}
	return f()
}

// Span is one in-flight span. The zero Span (nil tracer) is valid and
// inert: every method is a no-op behind a single nil check, so
// instrumentation sites need no enabled/disabled branches of their own.
// Span is a value type — starting a span allocates nothing beyond the
// ring slot its completion eventually overwrites.
type Span struct {
	tr          *SpanTracer
	id          uint64
	parent      uint64
	name        string
	track       string
	isa         string
	detail      string
	costUS      float64
	startNS     int64
	startCycles float64
}

// StartSpan opens a root span. On a nil tracer it returns the inert zero
// Span.
func (st *SpanTracer) StartSpan(track, name string) Span {
	if st == nil {
		return Span{}
	}
	return Span{
		tr:          st,
		id:          st.seq.Add(1),
		name:        name,
		track:       track,
		startNS:     int64(time.Since(st.epoch)),
		startCycles: st.readCycles(),
	}
}

// Active reports whether the span is recording (i.e. tracing is enabled).
func (s Span) Active() bool { return s.tr != nil }

// ID returns the span's sequence ID (0 when inert).
func (s Span) ID() uint64 { return s.id }

// StartChild opens a child span on the same tracer and track.
func (s Span) StartChild(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	c := s.tr.StartSpan(s.track, name)
	c.parent = s.id
	c.isa = s.isa
	return c
}

// SetISA tags the span with an ISA name.
func (s *Span) SetISA(isa string) {
	if s.tr != nil {
		s.isa = isa
	}
}

// SetDetail attaches span-specific context.
func (s *Span) SetDetail(detail string) {
	if s.tr != nil {
		s.detail = detail
	}
}

// SetCostUS attributes modeled cost (microseconds) to the span.
func (s *Span) SetCostUS(us float64) {
	if s.tr != nil {
		s.costUS = us
	}
}

// End completes the span, recording both domains' durations into the
// tracer ring and fanning out to sinks. Ending the zero Span is a no-op.
func (s Span) End() {
	st := s.tr
	if st == nil {
		return
	}
	endNS := int64(time.Since(st.epoch))
	endCycles := st.readCycles()
	ev := SpanEvent{
		Kind:        "span",
		ID:          s.id,
		ParentID:    s.parent,
		Name:        s.name,
		Track:       s.track,
		ISA:         s.isa,
		StartNS:     s.startNS,
		DurNS:       endNS - s.startNS,
		StartCycles: s.startCycles,
		DurCycles:   endCycles - s.startCycles,
		CostUS:      s.costUS,
		Detail:      s.detail,
	}
	if ev.DurNS < 0 {
		ev.DurNS = 0
	}
	if ev.DurCycles < 0 {
		ev.DurCycles = 0
	}
	st.mu.Lock()
	st.total++
	if len(st.ring) < st.cap {
		st.ring = append(st.ring, ev)
	} else {
		st.ring[int((st.total-1)%uint64(st.cap))] = ev
	}
	sinks := st.sinks
	st.mu.Unlock()
	for _, snk := range sinks {
		snk.EmitSpan(ev)
	}
}

// SpanJSONLSink writes each completed span as one JSON object per line;
// the "kind":"span" field keeps the lines distinguishable from point
// Events sharing the same stream.
type SpanJSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   uint64
	err error
}

// NewSpanJSONLSink returns a sink writing JSON lines to w.
func NewSpanJSONLSink(w io.Writer) *SpanJSONLSink {
	return &SpanJSONLSink{enc: json.NewEncoder(w)}
}

// EmitSpan implements SpanSink.
func (s *SpanJSONLSink) EmitSpan(ev SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
	if s.err == nil {
		s.n++
	}
}

// Written returns the number of spans successfully written.
func (s *SpanJSONLSink) Written() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, if any.
func (s *SpanJSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// --- Chrome trace-event / Perfetto export ---------------------------------

// Chrome trace-event constants: one process per time domain so Perfetto
// renders the wall-clock and guest-cycle timelines as separate track
// groups, with one thread (row) per span track within each.
const (
	chromePIDWall   = 1
	chromePIDCycles = 2
)

// chromeTID maps a span track name onto a stable thread ID within a
// domain process, assigning rows in first-seen order.
type chromeTID struct {
	ids  map[string]int
	next int
}

func (c *chromeTID) id(track string) int {
	if c.ids == nil {
		c.ids = make(map[string]int)
		c.next = 1
	}
	id, ok := c.ids[track]
	if !ok {
		id = c.next
		c.next++
		c.ids[track] = id
	}
	return id
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid,omitempty"`
	Args map[string]any `json:"args"`
}

// WriteChromeTrace writes spans (and optional point events, rendered as
// instants on the wall-clock timeline) as a Chrome trace-event JSON
// document loadable in ui.perfetto.dev or chrome://tracing.
//
// Spans appear twice: once in the wall-clock process (ts/dur in
// microseconds of host time) and once in the guest-cycle process (cycles
// mapped 1:1 onto trace microseconds — absolute numbers are guest cycles,
// not time). Events lacking cycle data are omitted from the cycle
// process. Span args carry the modeled CostUS and detail so per-phase
// cost is inspectable in the UI.
func WriteChromeTrace(w io.Writer, spans []SpanEvent, events []Event) error {
	var out []any
	wallTID := &chromeTID{}
	cycTID := &chromeTID{}

	out = append(out,
		chromeMeta{Name: "process_name", Ph: "M", PID: chromePIDWall,
			Args: map[string]any{"name": "wall clock (us)"}},
		chromeMeta{Name: "process_name", Ph: "M", PID: chromePIDCycles,
			Args: map[string]any{"name": "guest cycles"}},
	)

	track := func(s SpanEvent) string {
		if s.Track != "" {
			return s.Track
		}
		return "spans"
	}

	// Thread-name metadata in first-seen order, then the span slices.
	seenWall := map[string]bool{}
	seenCyc := map[string]bool{}
	for _, s := range spans {
		tk := track(s)
		if !seenWall[tk] {
			seenWall[tk] = true
			out = append(out, chromeMeta{Name: "thread_name", Ph: "M",
				PID: chromePIDWall, TID: wallTID.id(tk),
				Args: map[string]any{"name": tk}})
		}
		if s.DurCycles > 0 && !seenCyc[tk] {
			seenCyc[tk] = true
			out = append(out, chromeMeta{Name: "thread_name", Ph: "M",
				PID: chromePIDCycles, TID: cycTID.id(tk),
				Args: map[string]any{"name": tk}})
		}
	}
	for _, s := range spans {
		tk := track(s)
		args := map[string]any{"id": s.ID}
		if s.ParentID != 0 {
			args["parent"] = s.ParentID
		}
		if s.ISA != "" {
			args["isa"] = s.ISA
		}
		if s.CostUS != 0 {
			args["cost_us"] = s.CostUS
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		out = append(out, chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.StartNS) / 1e3,
			Dur: float64(s.DurNS) / 1e3,
			PID: chromePIDWall, TID: wallTID.id(tk),
			Args: args,
		})
		if s.DurCycles > 0 {
			out = append(out, chromeEvent{
				Name: s.Name, Ph: "X",
				TS:  s.StartCycles,
				Dur: s.DurCycles,
				PID: chromePIDCycles, TID: cycTID.id(tk),
				Args: args,
			})
		}
	}

	if len(events) > 0 {
		tid := wallTID.id("events")
		out = append(out, chromeMeta{Name: "thread_name", Ph: "M",
			PID: chromePIDWall, TID: tid,
			Args: map[string]any{"name": "events"}})
		// Point events carry no wall-clock timestamp of their own; spread
		// them by sequence number so ordering survives the conversion.
		for _, e := range events {
			args := map[string]any{"type": string(e.Type)}
			if e.ISA != "" {
				args["isa"] = e.ISA
			}
			if e.Addr != 0 {
				args["addr"] = fmt.Sprintf("%#x", e.Addr)
			}
			if e.Cost != 0 {
				args["cost"] = e.Cost
			}
			if e.Detail != "" {
				args["detail"] = e.Detail
			}
			out = append(out, chromeEvent{
				Name: string(e.Type), Ph: "i",
				TS:  float64(e.Seq),
				PID: chromePIDWall, TID: tid, S: "t",
				Args: args,
			})
		}
	}

	doc := struct {
		TraceEvents []any  `json:"traceEvents"`
		Unit        string `json:"displayTimeUnit"`
	}{TraceEvents: out, Unit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
