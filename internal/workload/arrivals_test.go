package workload

import (
	"math"
	"testing"
	"time"
)

// TestArrivalsPinnedSequence pins the exact arrival gaps for two seeds.
// The generator promises platform-independent determinism (splitmix64 +
// correctly-rounded float64 ops only), so these are hard equalities: a
// change here is a break in the open-loop traffic contract, not noise.
func TestArrivalsPinnedSequence(t *testing.T) {
	want1k := []int64{836005, 1369562, 3540554, 587633, 587463, 1439249, 2098409, 740379}
	a := NewArrivals(1, 1000)
	for i, w := range want1k {
		if got := a.Next().Nanoseconds(); got != w {
			t.Fatalf("seed 1 rate 1000: gap %d = %dns, want %dns", i, got, w)
		}
	}
	want250 := []int64{1976069, 67723, 9240883, 3498007}
	b := NewArrivals(7, 250)
	for i, w := range want250 {
		if got := b.Next().Nanoseconds(); got != w {
			t.Fatalf("seed 7 rate 250: gap %d = %dns, want %dns", i, got, w)
		}
	}
}

func TestArrivalsDeterministicPerSeed(t *testing.T) {
	a1 := NewArrivals(42, 500)
	a2 := NewArrivals(42, 500)
	for i := 0; i < 1000; i++ {
		if g1, g2 := a1.Next(), a2.Next(); g1 != g2 {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, g1, g2)
		}
	}
	b := NewArrivals(43, 500)
	same := 0
	a3 := NewArrivals(42, 500)
	for i := 0; i < 100; i++ {
		if a3.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 42 and 43 agree on %d/100 gaps; streams not independent", same)
	}
}

// TestArrivalsRateScaling: the same seed at double the rate yields exactly
// halved gaps (division by 2 is exact in IEEE 754), so rate sweeps reuse
// one underlying random stream.
func TestArrivalsRateScaling(t *testing.T) {
	a := NewArrivals(9, 100)
	b := NewArrivals(9, 200)
	for i := 0; i < 200; i++ {
		ga, gb := a.Next(), b.Next()
		if diff := ga - 2*gb; diff < -1 || diff > 1 {
			t.Fatalf("gap %d: rate 100 gave %v, rate 200 gave %v (want exactly half)", i, ga, gb)
		}
	}
}

// TestArrivalsMeanRate checks the empirical mean inter-arrival time
// against 1/rate: over 20k draws the sample mean of an exponential with
// mean 1ms has a standard error of ~7us, so 5% slack is > 7 sigma.
func TestArrivalsMeanRate(t *testing.T) {
	const rate = 1000.0
	a := NewArrivals(3, rate)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += a.Next()
	}
	mean := float64(sum.Nanoseconds()) / n
	want := 1e9 / rate
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean gap %.0fns, want %.0fns +-5%%", mean, want)
	}
}

func TestArrivalsSaturationMode(t *testing.T) {
	a := NewArrivals(1, 0)
	for i := 0; i < 10; i++ {
		if g := a.Next(); g != 0 {
			t.Fatalf("rate 0 must degenerate to back-to-back arrivals, got %v", g)
		}
	}
}
