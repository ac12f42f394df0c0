package telemetry

// The dense histogram the chunked Histogram replaced, kept as the
// reference FuzzHistogramMatchesDense checks it against.

import (
	"bytes"
	"math"
	"sort"
	"sync/atomic"
	"testing"
)

// denseHistogram holds all 2048 buckets of the base-1.02 sketch in one
// array, whether or not anything lands in them.
type denseHistogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

func (h *denseHistogram) Observe(v float64) {
	h.buckets[bucketOf(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if h.count.Add(1) == 1 {
		h.minBits.Store(math.Float64bits(v))
		h.maxBits.Store(math.Float64bits(v))
		return
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

func (h *denseHistogram) Snapshot() HistSnapshot {
	hs := HistSnapshot{Count: h.count.Load(), Sum: math.Float64frombits(h.sumBits.Load())}
	if hs.Count > 0 {
		hs.Min = math.Float64frombits(h.minBits.Load())
		hs.Max = math.Float64frombits(h.maxBits.Load())
		hs.Mean = hs.Sum / float64(hs.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{UpperBound: BucketUpperBound(i), Count: n})
		}
	}
	sort.Slice(hs.Buckets, func(a, b int) bool {
		return hs.Buckets[a].UpperBound < hs.Buckets[b].UpperBound
	})
	return hs
}

// FuzzHistogramMatchesDense observes the same values into a Histogram and
// the dense reference and requires the same count, sum, min, max, mean
// and buckets, and the same Prometheus exposition bytes. Each value takes
// three input bytes: a bucket's exact upper bound (chunk edges included),
// a mantissa and binary exponent reaching past both clamped ends of the
// range, zero, or a negative value.
func FuzzHistogramMatchesDense(f *testing.F) {
	f.Add([]byte{0, 7, 7, 0, 8, 0, 1, 100, 0, 1, 100, 255}) // bounds 63 and 64 (a chunk edge); 1 and nearly 2
	f.Add([]byte{1, 0, 0, 1, 0xFF, 0xFF, 2, 0, 0, 3, 7, 0}) // both clamped ends, zero, -7
	f.Add([]byte{0, 255, 7, 0, 80, 0, 0, 80, 3, 0, 80, 0})  // the last bucket; one chunk thrice, a bucket twice
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Histogram
		var ref denseHistogram
		for i := 0; i+2 < len(data); i += 3 {
			var v float64
			switch b1, b2 := data[i+1], data[i+2]; data[i] % 4 {
			case 0:
				v = BucketUpperBound(int(b1)*8 + int(b2%8))
			case 1:
				v = math.Ldexp(1+float64(b2)/256, int(b1)-100)
			case 2:
				v = 0
			case 3:
				v = -float64(b1)
			}
			got.Observe(v)
			ref.Observe(v)
		}
		gs, rs := got.Snapshot(), ref.Snapshot()
		if gs.Count != rs.Count || gs.Sum != rs.Sum || gs.Min != rs.Min || gs.Max != rs.Max || gs.Mean != rs.Mean {
			t.Fatalf("count/sum/min/max/mean %d %v %v %v %v, dense %d %v %v %v %v",
				gs.Count, gs.Sum, gs.Min, gs.Max, gs.Mean, rs.Count, rs.Sum, rs.Min, rs.Max, rs.Mean)
		}
		if len(gs.Buckets) != len(rs.Buckets) {
			t.Fatalf("%d buckets, dense %d", len(gs.Buckets), len(rs.Buckets))
		}
		for i := range gs.Buckets {
			if gs.Buckets[i] != rs.Buckets[i] {
				t.Fatalf("bucket %d = %+v, dense %+v", i, gs.Buckets[i], rs.Buckets[i])
			}
		}
		var gp, rp bytes.Buffer
		if err := (Snapshot{Histograms: map[string]HistSnapshot{"h": gs}}).WriteProm(&gp); err != nil {
			t.Fatal(err)
		}
		if err := (Snapshot{Histograms: map[string]HistSnapshot{"h": rs}}).WriteProm(&rp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gp.Bytes(), rp.Bytes()) {
			t.Fatalf("WriteProm:\n%s\ndense:\n%s", gp.Bytes(), rp.Bytes())
		}
	})
}
