package workload

import (
	"math"
	"time"
)

// Arrivals is a seeded open-loop traffic generator: a Poisson process
// whose inter-arrival gaps are exponentially distributed around a target
// rate. The fleet host drives admission from it — "open-loop" meaning
// arrivals do not wait for the system (a saturated host falls behind the
// schedule instead of slowing the schedule down), which is the traffic
// model a service facing independent users must survive.
//
// The generator is fully deterministic for a given seed: it draws from a
// private splitmix64 stream and uses only correctly-rounded float64
// arithmetic, so the same seed yields the identical arrival sequence on
// every platform and Go version. Tests pin the sequence.
type Arrivals struct {
	state uint64
	rate  float64
}

// NewArrivals returns a generator producing ratePerSec arrivals per
// second on average. A rate <= 0 degenerates to back-to-back arrivals
// (Next always 0): the closed-loop/saturation special case.
func NewArrivals(seed int64, ratePerSec float64) *Arrivals {
	return &Arrivals{state: uint64(seed), rate: ratePerSec}
}

// next64 advances the private splitmix64 stream.
func (a *Arrivals) next64() uint64 {
	a.state += 0x9E3779B97F4A7C15
	z := a.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next returns the gap until the next arrival. Gaps are exponential with
// mean 1/rate: gap = -ln(1-U)/rate for U uniform in [0, 1), so the count
// of arrivals in any window is Poisson-distributed.
func (a *Arrivals) Next() time.Duration {
	if a.rate <= 0 {
		return 0
	}
	u := float64(a.next64()>>11) / (1 << 53) // uniform [0,1), 53 bits
	gap := -math.Log(1-u) / a.rate
	return time.Duration(gap * float64(time.Second))
}
