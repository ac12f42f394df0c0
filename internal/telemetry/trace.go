package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// EventType names a structured trace event.
type EventType string

// The typed events emitted across the VM.
const (
	// EvTranslate fires when a translation unit is committed (Addr is the
	// source block, Cost the translation latency in microseconds).
	EvTranslate EventType = "translate"
	// EvCacheFlush fires when a code cache is flushed wholesale (Detail
	// records the number of evicted units).
	EvCacheFlush EventType = "cache-flush"
	// EvRATMiss fires when a return misses the Return Address Table and
	// traps to the VM (Addr is the source return address).
	EvRATMiss EventType = "rat-miss"
	// EvSecurity fires on a code-cache-miss security event (Addr is the
	// raw, pre-validation target of the suspect transfer).
	EvSecurity EventType = "security-event"
	// EvPolicy records a policy decision (Detail: e.g. "security-migrate",
	// "stay", "phase-migration-request").
	EvPolicy EventType = "policy"
	// EvMigrateBegin fires when a cross-ISA migration is attempted (ISA is
	// the source, Addr the resume point).
	EvMigrateBegin EventType = "migrate-begin"
	// EvMigrateEnd fires when the attempt concludes (ISA is the target on
	// success, Cost the modeled cost in microseconds; Detail carries the
	// refusal reason otherwise).
	EvMigrateEnd EventType = "migrate-end"
	// EvKill fires when the security policy terminates the process.
	EvKill EventType = "kill"
	// EvRespawn fires when a crashed worker is re-spawned with fresh
	// randomization (paper §5.3).
	EvRespawn EventType = "respawn"
	// EvPhase fires at a workload progress boundary in the timing model
	// (Cost is the cycles accumulated in the closing phase).
	EvPhase EventType = "phase"
)

// Event is one structured trace record.
type Event struct {
	Seq    uint64    `json:"seq"`
	Type   EventType `json:"type"`
	ISA    string    `json:"isa,omitempty"`
	Addr   uint32    `json:"addr,omitempty"`
	Target uint32    `json:"target,omitempty"`
	// Cost is event-specific: microseconds for translation/migration,
	// cycles for phase events.
	Cost   float64 `json:"cost,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// Sink receives every event as it is emitted.
type Sink interface {
	Emit(Event)
}

// Tracer records typed events into a bounded ring buffer and fans them out
// to sinks. Emission happens on VM trap paths (translation, migration,
// security events), never per instruction, so a mutex is cheap enough.
type Tracer struct {
	mu    sync.Mutex
	ring  ring[Event]
	sinks []Sink
}

// DefaultTraceCap is the default ring capacity.
const DefaultTraceCap = 4096

// NewTracer returns a tracer keeping the last capacity events (<= 0 means
// DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ring: ring[Event]{cap: capacity}}
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return t.ring.cap }

// AddSink attaches a sink; it receives events emitted from now on.
func (t *Tracer) AddSink(s Sink) {
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
}

// Emit records e, assigning its sequence number.
func (t *Tracer) Emit(e Event) {
	t.mu.Lock()
	e.Seq = t.ring.total + 1
	t.ring.push(e)
	sinks := t.sinks
	t.mu.Unlock()
	for _, s := range sinks {
		s.Emit(e)
	}
}

// Emitted returns the total number of events emitted (including any that
// have rotated out of the ring), which is also the newest event's Seq.
func (t *Tracer) Emitted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.total
}

// Tail returns the most recent n buffered events in emission order (all
// of them when n <= 0 or exceeds the buffer). It is the flight-recorder
// tap: an incident bundle wants the last few dozen events, not a copy of
// the whole ring.
func (t *Tracer) Tail(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.tail(n)
}

// Since returns the buffered events whose Seq exceeds seq, in emission
// order, and how many such events have already rotated out of the ring.
// A reader that passes the last Seq it saw follows the stream and learns
// of every gap; /events streams read the ring this way.
func (t *Tracer) Since(seq uint64) (events []Event, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.since(seq)
}

// JSONLSink writes each event, and each completed span, as one JSON
// object per line. It is both a Sink and a SpanSink: one sink attached to
// both tracers interleaves the two record kinds in emission order under
// one mutex, and span lines carry "kind":"span" to tell them apart.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   uint64
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) { s.write(e) }

// EmitSpan implements SpanSink.
func (s *JSONLSink) EmitSpan(ev SpanEvent) { s.write(ev) }

// write encodes one record; after the first write error the sink writes
// nothing more, and Err reports that error.
func (s *JSONLSink) write(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(v)
	if s.err == nil {
		s.n++
	}
}

// Written returns the number of records successfully written.
func (s *JSONLSink) Written() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
