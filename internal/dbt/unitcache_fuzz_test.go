package dbt_test

import (
	"testing"

	"hipstr/internal/dbt"
	"hipstr/internal/isa"
	"hipstr/internal/workload"
)

// FuzzUnitHitMatchesCold runs a generator-built program twice on one
// fresh private unit cache: cold (every unit translated and published),
// then warm (units installed from the cache). The two runs must fold to
// the same value once what only tells a hit from a translation is left
// out (see vmFold), and the warm run must hit whenever the cold run
// published. The program shapes are those of FuzzTimedRunMatchesStep;
// the VM varies in PSR seed, start ISA, opt level, code-cache size (4 KiB
// to 2 MiB) and PSR or HIPStR mode.
func FuzzUnitHitMatchesCold(f *testing.F) {
	f.Add(int64(105), uint8(6), uint8(6), uint8(2), uint8(2), int64(1), false, uint8(3), uint16(2044), false)
	f.Add(int64(200), uint8(9), uint8(5), uint8(3), uint8(1), int64(7), true, uint8(1), uint16(12), true)
	f.Fuzz(func(t *testing.T, seed int64, funcs, arith, memOps, workIters uint8,
		psrSeed int64, arm bool, opt uint8, cacheKB uint16, hipstr bool) {
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
		cfg := dbt.DefaultConfig()
		cfg.Seed = psrSeed
		cfg.Opt = dbt.OptLevel(opt % 4)
		cfg.CodeCacheSize = uint32(4+int(cacheKB)%2045) << 10
		cfg.SharedUnits = dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
		mode := modeHIPStR
		if !hipstr {
			mode = modePSR
			cfg.MigrateProb = 0
		}
		const steps = 200_000
		cold, warm := newVMFold(true), newVMFold(true)
		cvm := foldRun(t, cold, bin, k, cfg, mode, steps)
		wvm := foldRun(t, warm, bin, k, cfg, mode, steps)
		if cold.d != warm.d {
			t.Fatalf("warm run folds to %#x, cold to %#x", warm.d, cold.d)
		}
		if cvm != nil && cvm.Stats.SharedInstalls > 0 && wvm.Stats.SharedHits == 0 {
			t.Fatalf("cold run published %d units, warm run hit none", cvm.Stats.SharedInstalls)
		}
	})
}
