package fleet

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"testing"
	"time"
)

// stubHost returns a host whose run queue the test drives by hand: no
// workers, no workloads, and stub tenants that never run a guest. It
// arms the context the way Start does, minus the workers.
func stubHost(t *testing.T, ctx context.Context) *Host {
	t.Helper()
	h := NewHost(Config{Workers: 1})
	h.ctx = ctx
	h.stopWake = context.AfterFunc(ctx, h.wakeAll)
	t.Cleanup(func() { h.stopWake() })
	return h
}

func stubs(ids ...uint64) []*Tenant {
	out := make([]*Tenant, len(ids))
	for i, id := range ids {
		out[i] = &Tenant{id: id}
	}
	return out
}

// dispatch pops n tenants and returns their IDs in dispatch order.
func dispatch(t *testing.T, h *Host, n int) []uint64 {
	t.Helper()
	var ids []uint64
	for i := 0; i < n; i++ {
		tn := h.next()
		if tn == nil {
			t.Fatalf("dispatch %d: next returned nil with work queued", i+1)
		}
		ids = append(ids, tn.id)
	}
	return ids
}

// waitParked returns once n goroutines are parked on the run queue's
// condition variable inside next, so a wake-up under test cannot slip in
// before they park.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		parked := 0
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("[sync.Cond.Wait")) &&
				bytes.Contains(g, []byte("fleet.(*Host).next")) {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers parked after 5s", parked, n)
		}
	}
}

// TestDispatchOrder pins the run-queue policy: started tenants run first
// come, first served; a fresh admission takes every fourth dispatch
// host-wide while started tenants wait, and every dispatch when none
// does; admissions run in admission order.
func TestDispatchOrder(t *testing.T) {
	h := stubHost(t, context.Background())
	for _, tn := range stubs(101, 102, 103) {
		h.pushFresh(tn)
	}
	for _, tn := range stubs(1, 2, 3, 4, 5, 6, 7) {
		h.requeue(tn)
	}
	// Dispatches 4 and 8 take admissions; 10 finds runq empty and
	// takes one too.
	want := []uint64{1, 2, 3, 101, 4, 5, 6, 102, 7, 103}
	if got := dispatch(t, h, len(want)); !slices.Equal(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}

	// A requeued tenant waits behind the started tenants already queued.
	for _, tn := range stubs(8, 9, 10) {
		h.requeue(tn)
	}
	h.requeue(h.next()) // dispatch 11 runs 8 and requeues it
	for _, tn := range stubs(104, 105) {
		h.pushFresh(tn)
	}
	want = []uint64{104, 9, 10, 8, 105}
	if got := dispatch(t, h, len(want)); !slices.Equal(got, want) {
		t.Fatalf("after a requeue: order %v, want %v", got, want)
	}
}

// TestNextReturnsNilOnDrainAndCancel: a worker parked on an empty run
// queue is released with nil once the host drains (admission closed,
// nothing pending) and once its context is canceled, also with work
// still queued.
func TestNextReturnsNilOnDrainAndCancel(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		h := stubHost(t, context.Background())
		h.pending.Add(1) // one tenant out on a slice: not drained yet
		got := make(chan *Tenant)
		go func() { got <- h.next() }()
		waitParked(t, 1)
		// The tenant retires, then admission closes: Close sees nothing
		// pending and wakes the parked worker.
		h.pending.Add(-1)
		h.Close()
		if tn := <-got; tn != nil {
			t.Fatalf("next after drain = tenant %d, want nil", tn.id)
		}
		if tn := h.next(); tn != nil {
			t.Fatalf("next on a drained host = tenant %d, want nil", tn.id)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		h := stubHost(t, ctx)
		h.pending.Add(1)
		got := make(chan *Tenant)
		go func() { got <- h.next() }()
		waitParked(t, 1)
		cancel()
		if tn := <-got; tn != nil {
			t.Fatalf("next after cancel = tenant %d, want nil", tn.id)
		}
		h.pushFresh(&Tenant{id: 1})
		if tn := h.next(); tn != nil {
			t.Fatalf("next on a canceled host with work queued = tenant %d, want nil", tn.id)
		}
	})
}
