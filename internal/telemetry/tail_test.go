package telemetry

import (
	"fmt"
	"testing"
)

// TestTracerTail: the flight-recorder tap returns the most recent n
// events in emission order, the whole buffer when n is zero or oversized,
// and respects the ring's rotation.
func TestTracerTail(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 12; i++ { // rotates 4 out
		tr.Emit(Event{Type: EvRespawn, Detail: fmt.Sprintf("e%d", i)})
	}
	tail := tr.Tail(3)
	if len(tail) != 3 {
		t.Fatalf("Tail(3) returned %d events", len(tail))
	}
	for i, want := range []string{"e9", "e10", "e11"} {
		if tail[i].Detail != want {
			t.Fatalf("tail[%d]=%q, want %q", i, tail[i].Detail, want)
		}
	}
	if got := tr.Tail(0); len(got) != 8 {
		t.Fatalf("Tail(0) returned %d events, want full ring 8", len(got))
	}
	if got := tr.Tail(100); len(got) != 8 || got[0].Detail != "e4" {
		t.Fatalf("oversized Tail = %d events starting %q", len(got), got[0].Detail)
	}
	// Since reads the same ring by sequence: within it nothing is lost,
	// behind it the rotated-out events are counted.
	if got, dropped := tr.Since(9); len(got) != 3 || got[0].Detail != "e9" || dropped != 0 {
		t.Fatalf("Since(9) = %d events starting %q, %d dropped", len(got), got[0].Detail, dropped)
	}
	if got, dropped := tr.Since(2); len(got) != 8 || got[0].Detail != "e4" || dropped != 2 {
		t.Fatalf("Since(2) = %d events starting %q, %d dropped", len(got), got[0].Detail, dropped)
	}
}

func TestSpanTracerTail(t *testing.T) {
	st := NewSpanTracer(8)
	for i := 0; i < 5; i++ {
		sp := st.StartSpan("t", fmt.Sprintf("s%d", i))
		sp.End()
	}
	tail := st.Tail(2)
	if len(tail) != 2 || tail[0].Name != "s3" || tail[1].Name != "s4" {
		t.Fatalf("span tail: %+v", tail)
	}
	if got := st.Tail(0); len(got) != 5 {
		t.Fatalf("Tail(0) returned %d spans, want 5", len(got))
	}
}
