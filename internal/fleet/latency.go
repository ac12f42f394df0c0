package fleet

import (
	"math"
	"slices"
	"sync"
	"time"
)

// latencySLOWindow is the latency-slo-burn rule's window, and the span of
// retirements the fleet.latency_p99_us gauge it reads covers.
const latencySLOWindow = 10 * time.Second

// recentCap bounds the retirements recentLatency keeps. When more retire
// within one window, the quantile covers the latest recentCap of them.
const recentCap = 4096

// recentLatency holds the admission-to-retirement latencies of the most
// recently retired tenants, so the latency gauge reports the latency of
// the last window rather than of every tenant since the host started
// (the fleet.latency_us histogram and Aggregates do that): a burst that
// lifts the p99 past the objective ages out once it is a window old,
// and a drained host reads 0.
type recentLatency struct {
	mu     sync.Mutex
	at     [recentCap]int64   // retirement time, Unix ns
	us     [recentCap]float64 // latency, µs
	next   int                // slot the next retirement takes
	n      int                // filled slots
	window []float64          // quantile scratch
}

// add records a tenant retired at time at after us microseconds.
func (r *recentLatency) add(at time.Time, us float64) {
	r.mu.Lock()
	r.at[r.next] = at.UnixNano()
	r.us[r.next] = us
	r.next = (r.next + 1) % recentCap
	if r.n < recentCap {
		r.n++
	}
	r.mu.Unlock()
}

// quantile returns the nearest-rank q-quantile of the latencies of the
// tenants retired after now-span, or 0 when none did.
func (r *recentLatency) quantile(now time.Time, span time.Duration, q float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := now.Add(-span).UnixNano()
	r.window = r.window[:0]
	for i := 0; i < r.n; i++ {
		if r.at[i] > from {
			r.window = append(r.window, r.us[i])
		}
	}
	if len(r.window) == 0 {
		return 0
	}
	slices.Sort(r.window)
	rank := int(math.Ceil(q * float64(len(r.window))))
	return r.window[max(rank, 1)-1]
}
