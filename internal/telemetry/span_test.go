package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSpanNestingAndDomains drives a parent span with sequential children
// against a hand-cranked cycle source and checks both time domains: IDs
// nest (children carry the parent's ID), children start no earlier than
// the parent in both domains, and the children's cycle durations sum to
// no more than the parent's.
func TestSpanNestingAndDomains(t *testing.T) {
	st := NewSpanTracer(16)
	cycles := 100.0
	st.SetCycleSource(func() float64 { return cycles })

	parent := st.StartSpan("migrate", "migrate")
	parent.SetISA("arm")
	var childIDs []uint64
	for _, name := range []string{"rat-rebuild", "transform", "resume"} {
		c := parent.StartChild(name)
		childIDs = append(childIDs, c.ID())
		cycles += 50
		c.End()
	}
	cycles += 25
	parent.SetCostUS(620)
	parent.End()

	spans := st.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	p := spans[3] // parent completes last
	if p.Name != "migrate" || p.ParentID != 0 {
		t.Fatalf("last completed span = %+v, want root migrate", p)
	}
	if p.ISA != "arm" || p.CostUS != 620 {
		t.Fatalf("parent attrs = %+v", p)
	}
	if p.StartCycles != 100 || p.DurCycles != 175 {
		t.Fatalf("parent cycles = start %v dur %v, want 100/175", p.StartCycles, p.DurCycles)
	}
	var childCycles float64
	for i, c := range spans[:3] {
		if c.ParentID != p.ID {
			t.Errorf("child %q parent = %d, want %d", c.Name, c.ParentID, p.ID)
		}
		if c.ID != childIDs[i] {
			t.Errorf("child %q id = %d, want %d", c.Name, c.ID, childIDs[i])
		}
		if c.ISA != "arm" {
			t.Errorf("child %q did not inherit ISA: %q", c.Name, c.ISA)
		}
		if c.StartCycles < p.StartCycles {
			t.Errorf("child %q starts at cycle %v, before parent %v", c.Name, c.StartCycles, p.StartCycles)
		}
		if c.StartNS < p.StartNS {
			t.Errorf("child %q starts at %dns, before parent %dns", c.Name, c.StartNS, p.StartNS)
		}
		if c.DurCycles != 50 {
			t.Errorf("child %q dur = %v cycles, want 50", c.Name, c.DurCycles)
		}
		childCycles += c.DurCycles
	}
	if childCycles > p.DurCycles {
		t.Fatalf("children cycles %v exceed parent %v", childCycles, p.DurCycles)
	}
}

// TestSpanInertWhenDisabled pins the zero-overhead-disabled contract: a
// nil tracer (the Telemetry default) yields inert spans whose whole
// lifecycle allocates nothing.
func TestSpanInertWhenDisabled(t *testing.T) {
	var st *SpanTracer
	tel := New()
	if tel.Spans != nil {
		t.Fatal("Telemetry must not enable spans by default")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := st.StartSpan("dbt", "translate")
		sp.SetISA("x86")
		sp.SetDetail("never recorded")
		sp.SetCostUS(1)
		c := sp.StartChild("inner")
		c.End()
		sp.End()
		tsp := tel.StartSpan("migrate", "migrate")
		tsp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span lifecycle allocates %v/op, want 0", allocs)
	}
	if st.Completed() != 0 || len(st.Spans()) != 0 || st.Cap() != 0 {
		t.Fatal("nil tracer accumulated state")
	}
}

// TestSpanAbandonedNeverRecorded pins the abandonment idiom: refusal
// paths drop spans without End, and nothing lands in the ring.
func TestSpanAbandonedNeverRecorded(t *testing.T) {
	st := NewSpanTracer(8)
	sp := st.StartSpan("machine", "invalidate")
	_ = sp
	if st.Completed() != 0 {
		t.Fatalf("abandoned span was recorded: %d completed", st.Completed())
	}
}

// TestSpanRingRotation overfills a small ring and checks the retained
// window is the most recent spans in completion order.
func TestSpanRingRotation(t *testing.T) {
	st := NewSpanTracer(4)
	for i := 0; i < 10; i++ {
		st.StartSpan("t", "s").End()
	}
	if st.Completed() != 10 {
		t.Fatalf("completed = %d, want 10", st.Completed())
	}
	spans := st.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("ring out of completion order: %d after %d", spans[i].ID, spans[i-1].ID)
		}
	}
	if spans[3].ID != 10 {
		t.Fatalf("newest retained span id = %d, want 10", spans[3].ID)
	}
}

// TestWriteChromeTraceShape checks the exported document parses, spans
// appear in the wall-clock process (and in the guest-cycle process only
// with cycle data), and point events become instants.
func TestWriteChromeTraceShape(t *testing.T) {
	spans := []SpanEvent{
		{Kind: "span", ID: 1, Name: "migrate", Track: "migrate", StartNS: 1000, DurNS: 500000, StartCycles: 10, DurCycles: 400, CostUS: 620},
		{Kind: "span", ID: 2, ParentID: 1, Name: "resume", Track: "migrate", StartNS: 400000, DurNS: 100000},
	}
	events := []Event{{Seq: 1, Type: EvSecurity, ISA: "x86"}}
	var b strings.Builder
	if err := WriteChromeTrace(&b, spans, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	count := func(name, ph string, pid int) int {
		n := 0
		for _, e := range doc.TraceEvents {
			if e.Name == name && e.Ph == ph && e.PID == pid {
				n++
			}
		}
		return n
	}
	if n := count("migrate", "X", chromePIDWall); n != 1 {
		t.Errorf("migrate span in wall process: %d, want 1", n)
	}
	if n := count("migrate", "X", chromePIDCycles); n != 1 {
		t.Errorf("migrate span in cycle process: %d, want 1", n)
	}
	// The resume span has no cycle data and must stay off the cycle axis.
	if n := count("resume", "X", chromePIDCycles); n != 0 {
		t.Errorf("cycle-less span leaked into cycle process: %d", n)
	}
	if n := count("resume", "X", chromePIDWall); n != 1 {
		t.Errorf("resume span in wall process: %d, want 1", n)
	}
	if n := count(string(EvSecurity), "i", chromePIDWall); n != 1 {
		t.Errorf("security instant: %d, want 1", n)
	}
}

// TestJSONLSinkDiscriminator checks the line kinds a JSONLSink writes:
// span lines carry the "kind":"span" field tracestat keys on, and one sink
// on both tracers interleaves events and spans in emission order.
func TestJSONLSinkDiscriminator(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events bool // also attach the sink to the event tracer
		want   string
	}{
		{"spans", false, "span,span"},
		{"events and spans", true, "event,span,event,span"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			sink := NewJSONLSink(&b)
			tr := NewTracer(4)
			st := NewSpanTracer(4)
			st.AddSink(sink)
			if tc.events {
				tr.AddSink(sink)
			}
			tr.Emit(Event{Type: EvSecurity})
			st.StartSpan("dbt", "translate").End()
			tr.Emit(Event{Type: EvMigrateBegin})
			st.StartSpan("migrate", "migrate").End()
			var kinds []string
			for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
				var probe struct {
					Kind string `json:"kind"`
				}
				if err := json.Unmarshal([]byte(line), &probe); err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				if probe.Kind == "" {
					probe.Kind = "event"
				}
				kinds = append(kinds, probe.Kind)
			}
			if got := strings.Join(kinds, ","); got != tc.want {
				t.Fatalf("line kinds %s, want %s", got, tc.want)
			}
			if sink.Written() != uint64(len(kinds)) || sink.Err() != nil {
				t.Fatalf("sink wrote %d, err %v", sink.Written(), sink.Err())
			}
		})
	}
}

// BenchmarkSpanDisabled measures the instrumentation cost with tracing
// off — the common case on bench configs. Must stay allocation-free.
func BenchmarkSpanDisabled(b *testing.B) {
	var st *SpanTracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := st.StartSpan("dbt", "translate")
		sp.SetCostUS(1)
		sp.End()
	}
}
