package machine_test

import (
	"math"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/workload"
)

// FuzzTimedRunMatchesStep runs generator-built programs through fused Run
// and per-instruction Step, each under its own timing model, and requires
// the comparison of checkTimingBitIdentical to hold. Both models start
// just below 2^exp, so commits meet the summary path's power-of-two guard
// early in the run. Shapes are capped so one input runs well under a
// second. Funcs is at least 2 because main calls roots drawn from the
// lower half of the functions. PointerChase stays off: its ring shares
// the arena with the loops' stores, and small arenas corrupt it into
// wild loads.
func FuzzTimedRunMatchesStep(f *testing.F) {
	f.Add(int64(105), uint8(6), uint8(6), uint8(2), uint8(2), false, uint16(1009), uint8(10))
	f.Add(int64(200), uint8(9), uint8(5), uint8(3), uint8(1), true, uint16(97), uint8(20))
	f.Add(int64(7), uint8(2), uint8(1), uint8(0), uint8(3), false, uint16(1), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, funcs, arith, memOps, workIters uint8, arm bool, chunk uint16, exp uint8) {
		p := workload.Profile{
			Name: "fuzz", Seed: seed,
			Funcs: 2 + int(funcs%10), MaxLoops: 2, MaxTrip: 8,
			Arith: 1 + int(arith%8), MemOps: int(memOps % 4),
			CallFanout: 1, IndirectFrac: 0.1, DataKB: 4,
			WorkIters: 1 + int(workIters%3), ByteOps: seed&1 != 0,
		}
		bin, err := workload.Compile(p)
		if err != nil {
			t.Fatalf("compile %+v: %v", p, err)
		}
		k := isa.X86
		if arm {
			k = isa.ARM
		}
		start := math.Ldexp(1, 10+int(exp%31)) - 40
		checkTimingBitIdenticalFrom(t, bin, k, false, 1+uint64(chunk%2048), start)
	})
}
