package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

func TestTracerRingOrder(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Type: EvSecurity, Addr: uint32(i)})
	}
	evs := tr.Tail(0)
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
		if e.Addr != uint32(6+i) {
			t.Fatalf("event %d addr %d, want %d", i, e.Addr, 6+i)
		}
	}
	if tr.Emitted() != 10 {
		t.Fatalf("emitted = %d, want 10", tr.Emitted())
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(0)
	sink := NewJSONLSink(&buf)
	tr.AddSink(sink)
	tr.Emit(Event{Type: EvTranslate, ISA: "x86", Addr: 0x1000, Cost: 12.5})
	tr.Emit(Event{Type: EvMigrateEnd, ISA: "arm", Cost: 900})
	if sink.Written() != 2 || sink.Err() != nil {
		t.Fatalf("written=%d err=%v", sink.Written(), sink.Err())
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("JSONL has %d lines, want 2", n)
	}
}

// failingWriter accepts its first budget bytes, then fails every write.
type failingWriter struct {
	budget int
	writes int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errors.New("disk full")
	}
	w.budget -= len(p)
	return len(p), nil
}

// TestJSONLSinkStopsAtWriteError: the first failed write sticks in Err and
// the sink writes nothing after it, for events and spans alike.
func TestJSONLSinkStopsAtWriteError(t *testing.T) {
	for _, kind := range []string{"events", "spans"} {
		t.Run(kind, func(t *testing.T) {
			w := &failingWriter{budget: 200}
			sink := NewJSONLSink(w)
			tr := NewTracer(0)
			tr.AddSink(sink)
			st := NewSpanTracer(0)
			st.AddSink(sink)
			emit := func() {
				if kind == "events" {
					tr.Emit(Event{Type: EvTranslate, ISA: "x86", Cost: 1})
				} else {
					st.StartSpan("dbt", "translate").End()
				}
			}
			for i := 0; i < 100 && sink.Err() == nil; i++ {
				emit()
			}
			if sink.Err() == nil {
				t.Fatal("a 200-byte writer never failed")
			}
			written, writes := sink.Written(), w.writes
			if written == 0 {
				t.Fatal("no record written before the failure")
			}
			for i := 0; i < 5; i++ {
				emit()
			}
			if sink.Written() != written || w.writes != writes {
				t.Fatalf("sink kept writing after its error: %d records, %d writes (was %d, %d)",
					sink.Written(), w.writes, written, writes)
			}
		})
	}
}

func TestNilTelemetrySafe(t *testing.T) {
	var tel *Telemetry
	tel.Emit(Event{Type: EvKill})
	tel.Counter("x").Inc()
	tel.Gauge("y").Set(1)
	tel.Histogram("z").Observe(1)
	s := tel.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil telemetry leaked metrics")
	}
}
