package fleet

import (
	"testing"
	"time"
)

// TestRecentLatencyWindow: the quantile covers only the tenants retired
// within the window before now, so a slow burst ages out and an empty
// window reads 0.
func TestRecentLatencyWindow(t *testing.T) {
	var r recentLatency
	t0 := time.Unix(1000, 0)
	const span = 10 * time.Second
	if got := r.quantile(t0, span, 0.99); got != 0 {
		t.Fatalf("no retirements: p99 %v, want 0", got)
	}
	for i := 0; i < 100; i++ {
		r.add(t0, 5e6) // a burst of 5 s latencies
	}
	for i := 1; i <= 100; i++ {
		r.add(t0.Add(5*time.Second), float64(i)*1000) // 1..100 ms
	}
	for _, c := range []struct {
		now  time.Duration // after t0
		q    float64
		want float64
	}{
		{9 * time.Second, 0.99, 5e6},   // both batches in the window
		{9 * time.Second, 0.5, 100e3},  // rank 100 of 200: the fastest batch's slowest
		{10 * time.Second, 0.99, 99e3}, // the burst is exactly a window old: out
		{10 * time.Second, 0.5, 50e3},  // rank 50 of 100
		{10 * time.Second, 0, 1e3},     // q 0 is the minimum
		{10 * time.Second, 1, 100e3},   // q 1 is the maximum
		{15 * time.Second, 0.99, 0},    // everything aged out
	} {
		if got := r.quantile(t0.Add(c.now), span, c.q); got != c.want {
			t.Errorf("now t0%+v, q %v: got %v, want %v", c.now, c.q, got, c.want)
		}
	}
}

// TestRecentLatencyBounded: the ring keeps the latest recentCap
// retirements and forgets older ones even inside the window.
func TestRecentLatencyBounded(t *testing.T) {
	var r recentLatency
	t0 := time.Unix(1000, 0)
	const n = 3*recentCap + 7
	for i := 0; i < n; i++ {
		r.add(t0.Add(time.Duration(i)*time.Microsecond), float64(i))
	}
	if r.n != recentCap || len(r.at) != recentCap {
		t.Fatalf("ring holds %d of %d slots", r.n, len(r.at))
	}
	now := t0.Add(time.Second)
	if got, want := r.quantile(now, time.Minute, 0), float64(n-recentCap); got != want {
		t.Errorf("oldest kept latency %v, want %v", got, want)
	}
	if got, want := r.quantile(now, time.Minute, 1), float64(n-1); got != want {
		t.Errorf("newest latency %v, want %v", got, want)
	}
	if len(r.window) != recentCap {
		t.Errorf("quantile scratch holds %d values, want %d", len(r.window), recentCap)
	}
}
