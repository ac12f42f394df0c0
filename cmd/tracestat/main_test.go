package main

import (
	"os"
	"path/filepath"
	"testing"

	"hipstr/internal/telemetry"
)

func writeTrace(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadTraceEmpty(t *testing.T) {
	events, spans, err := readTrace(writeTrace(t, ""))
	if err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	if len(events) != 0 || len(spans) != 0 {
		t.Fatalf("got %d events, %d spans from empty trace", len(events), len(spans))
	}
	// Blank lines only are equally empty.
	events, spans, err = readTrace(writeTrace(t, "\n\n"))
	if err != nil || len(events) != 0 || len(spans) != 0 {
		t.Fatalf("blank-line trace: %d events, %d spans, %v", len(events), len(spans), err)
	}
}

func TestReadTraceTruncatedTail(t *testing.T) {
	// A trace cut mid-write: the final line is half an event. It must be
	// dropped with the parsed prefix preserved, not fail the run.
	events, _, err := readTrace(writeTrace(t,
		`{"seq":1,"type":"translate","isa":"x86","cost":3}`+"\n"+
			`{"seq":2,"type":"rat-miss","isa":"arm"}`+"\n"+
			`{"seq":3,"type":"mig`))
	if err != nil {
		t.Fatalf("truncated tail must not be fatal: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[1].Seq != 2 {
		t.Errorf("last kept event seq = %d, want 2", events[1].Seq)
	}
}

func TestReadTraceMalformedMidStream(t *testing.T) {
	// Garbage followed by more data is corruption, not truncation.
	_, _, err := readTrace(writeTrace(t,
		`{"seq":1,"type":"translate"}`+"\n"+
			"not json\n"+
			`{"seq":2,"type":"translate"}`))
	if err == nil {
		t.Fatal("mid-stream garbage must be fatal")
	}
}

func TestReadTraceMixedSpans(t *testing.T) {
	// Span records carry "kind":"span" and route to the span list; point
	// events keep flowing to the event list, in stream order.
	events, spans, err := readTrace(writeTrace(t,
		`{"seq":1,"type":"translate","isa":"x86","cost":3}`+"\n"+
			`{"kind":"span","id":1,"name":"migrate","track":"migrate","start_ns":10,"dur_ns":900,"cost_us":620}`+"\n"+
			`{"kind":"span","id":2,"parent":1,"name":"resume","track":"migrate","start_ns":700,"dur_ns":200}`+"\n"+
			`{"seq":2,"type":"rat-miss","isa":"arm"}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || len(spans) != 2 {
		t.Fatalf("got %d events, %d spans, want 2 and 2", len(events), len(spans))
	}
	if spans[0].Name != "migrate" || spans[0].CostUS != 620 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].ParentID != 1 || spans[1].DurNS != 200 {
		t.Errorf("span 1 = %+v", spans[1])
	}
}

// TestReadTraceSharedSink reads a stream written the way hipstr-run writes
// -trace-out: one JSONLSink on both tracers.
func TestReadTraceSharedSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewJSONLSink(f)
	tr := telemetry.NewTracer(0)
	st := telemetry.NewSpanTracer(0)
	tr.AddSink(sink)
	st.AddSink(sink)
	tr.Emit(telemetry.Event{Type: telemetry.EvTranslate, ISA: "x86", Cost: 3})
	st.StartSpan("migrate", "migrate").End()
	tr.Emit(telemetry.Event{Type: telemetry.EvRATMiss, ISA: "arm"})
	if err := f.Close(); err != nil || sink.Err() != nil {
		t.Fatalf("close %v, sink %v", err, sink.Err())
	}
	events, spans, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Seq != 1 || events[1].Type != telemetry.EvRATMiss {
		t.Fatalf("events = %+v", events)
	}
	if len(spans) != 1 || spans[0].Name != "migrate" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestAssignPhasesEmpty(t *testing.T) {
	if labels := assignPhases(nil); len(labels) != 0 {
		t.Fatalf("assignPhases(nil) = %v", labels)
	}
	labels := assignPhases([]telemetry.Event{{Type: telemetry.EvTranslate}})
	if len(labels) != 1 || labels[0] != "(run)" {
		t.Fatalf("phase-less trace labels = %v", labels)
	}
}
