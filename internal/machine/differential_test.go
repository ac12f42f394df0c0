package machine_test

// Differential semantics tests for the fused/batched dispatch path: every
// testprogs workload is executed twice on each ISA — once through
// Machine.Run (superinstruction fusion, block-batched timing) and once
// through per-instruction Machine.Step — and the two trajectories must
// agree exactly: registers, flags, PC, Steps, halt state at every sync
// point, and memory, syscall trace, and exit status at the end. A second
// test attaches the cycle-approximate timing model to both and requires
// bit-identical float64 cycle totals, proving the batched commit replays
// the exact observation sequence, with and without the sampling profiler
// wrapping the model. Chunk sizes are primes so Run budgets expire at
// every offset within blocks, exercising Run's single-stepped tail.

import (
	"fmt"
	"sync"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/perf"
	"hipstr/internal/proc"
	"hipstr/internal/profiler"
	"hipstr/internal/testprogs"
)

// diffChunks are the Run step budgets between sync points. Primes (and 1)
// make budget boundaries land at every block offset.
var diffChunks = []uint64{1, 2, 3, 7, 13, 97, 1009}

const diffMaxSteps = 2_000_000

// compileAll compiles every testprogs workload once.
func compileAll(t *testing.T) map[string]*fatbin.Binary {
	t.Helper()
	bins := make(map[string]*fatbin.Binary)
	for name, tp := range testprogs.All() {
		bin, err := compiler.Compile(tp.Mod)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		bins[name] = bin
	}
	return bins
}

// stepN single-steps p's machine n times or until it halts.
func stepN(t *testing.T, p *proc.Process, n uint64) {
	t.Helper()
	for i := uint64(0); i < n && !p.M.Halted; i++ {
		if err := p.M.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
}

// requireSameState compares the full architectural state of both machines.
func requireSameState(t *testing.T, label string, ref, fus *machine.Machine) {
	t.Helper()
	if ref.State != fus.State {
		t.Fatalf("%s: state diverged\n step: %+v\n  run: %+v", label, ref.State, fus.State)
	}
}

// requireSameMemory compares every named region byte for byte.
func requireSameMemory(t *testing.T, label string, ref, fus *mem.Memory) {
	t.Helper()
	for _, r := range ref.Regions() {
		a := make([]byte, r.Size)
		b := make([]byte, r.Size)
		if err := ref.Read(r.Base, a); err != nil {
			t.Fatalf("%s: read %s from step image: %v", label, r.Name, err)
		}
		if err := fus.Read(r.Base, b); err != nil {
			t.Fatalf("%s: read %s from run image: %v", label, r.Name, err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: region %s differs at %#x: step=%#x run=%#x",
					label, r.Name, r.Base+uint32(i), a[i], b[i])
			}
		}
	}
}

// runDifferential executes one workload on one ISA through both dispatch
// paths, asserting identical trajectories. It returns the step count so
// callers can sanity-check the workload actually ran.
func runDifferential(t *testing.T, bin *fatbin.Binary, k isa.Kind, chunk uint64) uint64 {
	t.Helper()
	ref, err := proc.New(bin, k)
	if err != nil {
		t.Fatal(err)
	}
	fus, err := proc.New(bin, k)
	if err != nil {
		t.Fatal(err)
	}
	for !fus.M.Halted && fus.M.Steps < diffMaxSteps {
		n, err := fus.Run(chunk)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		stepN(t, ref, n)
		requireSameState(t, fmt.Sprintf("after %d steps", fus.M.Steps), ref.M, fus.M)
		if n == 0 && !fus.M.Halted {
			t.Fatal("run made no progress")
		}
	}
	if !fus.M.Halted {
		t.Fatalf("workload did not halt within %d steps", diffMaxSteps)
	}
	requireSameMemory(t, "at halt", ref.Mem, fus.Mem)
	if ref.Exited != fus.Exited || ref.ExitCode != fus.ExitCode {
		t.Fatalf("exit diverged: step=(%v,%d) run=(%v,%d)",
			ref.Exited, ref.ExitCode, fus.Exited, fus.ExitCode)
	}
	if len(ref.Trace) != len(fus.Trace) {
		t.Fatalf("trace length diverged: step=%d run=%d", len(ref.Trace), len(fus.Trace))
	}
	for i := range ref.Trace {
		if ref.Trace[i] != fus.Trace[i] {
			t.Fatalf("trace[%d] diverged: step=%d run=%d", i, ref.Trace[i], fus.Trace[i])
		}
	}
	return fus.M.Steps
}

// TestFusedRunMatchesStep is the headline differential test: fused Run vs
// per-instruction Step over every workload, both ISAs, all chunk sizes.
func TestFusedRunMatchesStep(t *testing.T) {
	bins := compileAll(t)
	for name, tp := range testprogs.All() {
		for _, k := range isa.Kinds {
			t.Run(fmt.Sprintf("%s/%s", name, k), func(t *testing.T) {
				for _, chunk := range diffChunks {
					steps := runDifferential(t, bins[name], k, chunk)
					if steps == 0 {
						t.Fatal("workload executed zero steps")
					}
				}
				_ = tp
			})
		}
	}
}

// TestBatchedTimingBitIdentical attaches the perf model to both dispatch
// paths and requires the accumulated float64 cycle count — and every
// event counter — to be equal to the last bit. This is the contract that
// lets every experiment table stay byte-identical under fusion. The
// profiled variant wraps the fused side's model in the sampling profiler,
// which must neither perturb the model nor push Run off the fused path.
func TestBatchedTimingBitIdentical(t *testing.T) {
	bins := compileAll(t)
	for name := range bins {
		for _, k := range isa.Kinds {
			t.Run(fmt.Sprintf("%s/%s", name, k), func(t *testing.T) {
				for _, profiled := range []bool{false, true} {
					label := "plain"
					if profiled {
						label = "profiled"
					}
					t.Run(label, func(t *testing.T) {
						checkTimingBitIdentical(t, bins[name], k, profiled)
					})
				}
			})
		}
	}
}

// checkTimingBitIdentical runs bin on ISA k under Step with a perf model
// and under fused Run with another (wrapped by a profiler when profiled),
// and requires identical state, memory, cycles, counts, and
// cache/predictor stats.
func checkTimingBitIdentical(t *testing.T, bin *fatbin.Binary, k isa.Kind, profiled bool) {
	checkTimingBitIdenticalFrom(t, bin, k, profiled, 1009, 0)
}

// checkTimingBitIdenticalFrom is checkTimingBitIdentical with Run budgets
// of chunk steps and both models' cycle totals starting at cycles0.
func checkTimingBitIdenticalFrom(t *testing.T, bin *fatbin.Binary, k isa.Kind, profiled bool, chunk uint64, cycles0 float64) {
	t.Helper()
	ref, err := proc.New(bin, k)
	if err != nil {
		t.Fatal(err)
	}
	fus, err := proc.New(bin, k)
	if err != nil {
		t.Fatal(err)
	}
	mRef := perf.NewModel(perf.CoreFor(k))
	mRef.Attach(ref.M)
	mFus := perf.NewModel(perf.CoreFor(k))
	mFus.Attach(fus.M)
	mRef.Cycles, mFus.Cycles = cycles0, cycles0
	var prof *profiler.Profiler
	if profiled {
		prof = profiler.New(bin, 8)
		prof.BindModel(mFus)
		prof.Attach(fus.M)
	}
	for !fus.M.Halted && fus.M.Steps < diffMaxSteps {
		n, err := fus.Run(chunk)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		stepN(t, ref, n)
		if n == 0 && !fus.M.Halted {
			t.Fatal("run made no progress")
		}
	}
	requireSameState(t, "at halt", ref.M, fus.M)
	requireSameMemory(t, "at halt", ref.Mem, fus.Mem)
	if mRef.Cycles != mFus.Cycles {
		t.Fatalf("cycles diverged: step=%v run=%v (delta %v)",
			mRef.Cycles, mFus.Cycles, mRef.Cycles-mFus.Cycles)
	}
	if mRef.Counts != mFus.Counts {
		t.Fatalf("counts diverged:\n step: %+v\n  run: %+v", mRef.Counts, mFus.Counts)
	}
	if mRef.ICache.Hits() != mFus.ICache.Hits() || mRef.ICache.Misses != mFus.ICache.Misses {
		t.Fatalf("icache diverged: step=%d/%d run=%d/%d",
			mRef.ICache.Hits(), mRef.ICache.Misses, mFus.ICache.Hits(), mFus.ICache.Misses)
	}
	if mRef.DCache.Hits() != mFus.DCache.Hits() || mRef.DCache.Misses != mFus.DCache.Misses {
		t.Fatalf("dcache diverged: step=%d/%d run=%d/%d",
			mRef.DCache.Hits(), mRef.DCache.Misses, mFus.DCache.Hits(), mFus.DCache.Misses)
	}
	if mRef.Bpred.Lookups != mFus.Bpred.Lookups || mRef.Bpred.Mispredicts != mFus.Bpred.Mispredicts {
		t.Fatalf("bpred diverged: step=%d/%d run=%d/%d",
			mRef.Bpred.Lookups, mRef.Bpred.Mispredicts, mFus.Bpred.Lookups, mFus.Bpred.Mispredicts)
	}
	if profiled {
		if prof.Report().Samples == 0 {
			t.Fatal("profiler took no samples")
		}
		if fus.M.FusionStats().BatchedBlocks == 0 {
			t.Fatal("profiled run dispatched no batched blocks")
		}
	}
}

// TestFusedDifferentialConcurrent runs independent differential pairs from
// several goroutines at once. Each pair owns its memory and machines; the
// point is to let the race detector (go test -race) observe the fused
// dispatch path running concurrently, catching any accidental shared
// state in fusion, block caching, or timing commits.
func TestFusedDifferentialConcurrent(t *testing.T) {
	bins := compileAll(t)
	var wg sync.WaitGroup
	for _, name := range []string{"sumloop", "fib", "nested", "ptrchase"} {
		for _, k := range isa.Kinds {
			wg.Add(1)
			go func(name string, k isa.Kind) {
				defer wg.Done()
				ref, err := proc.New(bins[name], k)
				if err != nil {
					t.Errorf("%s/%s: %v", name, k, err)
					return
				}
				fus, err := proc.New(bins[name], k)
				if err != nil {
					t.Errorf("%s/%s: %v", name, k, err)
					return
				}
				for !fus.M.Halted && fus.M.Steps < diffMaxSteps {
					n, err := fus.Run(97)
					if err != nil {
						t.Errorf("%s/%s: run: %v", name, k, err)
						return
					}
					for i := uint64(0); i < n && !ref.M.Halted; i++ {
						if err := ref.M.Step(); err != nil {
							t.Errorf("%s/%s: step: %v", name, k, err)
							return
						}
					}
					if ref.M.State != fus.M.State {
						t.Errorf("%s/%s: state diverged at %d steps", name, k, fus.M.Steps)
						return
					}
					if n == 0 && !fus.M.Halted {
						t.Errorf("%s/%s: no progress", name, k)
						return
					}
				}
			}(name, k)
		}
	}
	wg.Wait()
}
