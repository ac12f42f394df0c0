package perf

// Tests of the summary commit (commitSummary): bit-exactness against the
// per-instruction path over random blocks at running totals around every
// power of two, fallback on cores whose charges are not multiples of
// 1/16 cycle, and the share of whole-block commits the fast path takes
// on real workloads.

import (
	"math"
	"math/rand"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/proc"
	"hipstr/internal/workload"
)

// randBlock builds a random straight-line block with every class of
// timed instruction, and an effective-address log for it. A warm block
// sits in a small code region and draws its addresses from a few
// conflicting D-cache sets, so accesses hit and miss. A cold block
// (fresh != nil) takes its code and every address from lines never
// touched before, so every access misses and the block's charge comes
// close to the guard's worst-case bound. A non-zero start fixes the
// block's address (to resolve a pending branch as taken).
func randBlock(rng *rand.Rand, fresh *uint32, start uint32) ([]isa.Inst, []uint32) {
	reg := isa.R(isa.Reg(rng.Intn(8)))
	mem := isa.MB(isa.Reg(rng.Intn(8)), 0)
	addr := uint32(0x10000 + rng.Intn(1<<14))
	if fresh != nil {
		*fresh += 1 << 16
		addr = *fresh
	}
	if start != 0 {
		addr = start
	}
	var insts []isa.Inst
	add := func(in isa.Inst) {
		in.Addr = addr
		in.Size = uint8(1 + rng.Intn(machine.MaxInstLen))
		addr += uint32(in.Size)
		insts = append(insts, in)
	}
	for n := 1 + rng.Intn(40); n > 0; n-- {
		switch rng.Intn(16) {
		case 0:
			add(isa.Inst{Op: isa.OpMov, Dst: reg, Src: reg})
		case 1:
			add(isa.Inst{Op: isa.OpMov, Dst: reg, Src: mem})
		case 2:
			add(isa.Inst{Op: isa.OpMov, Dst: mem, Src: reg})
		case 3:
			add(isa.Inst{Op: isa.OpLoad, Dst: reg, Src: mem})
		case 4:
			add(isa.Inst{Op: isa.OpStore, Dst: mem, Src: reg})
		case 5:
			add(isa.Inst{Op: isa.OpAdd, Dst: mem, Src: reg}) // read-modify-write
		case 6:
			add(isa.Inst{Op: isa.OpXor, Dst: reg, Src: mem})
		case 7:
			add(isa.Inst{Op: isa.OpMul, Dst: reg, Src: reg})
		case 8:
			add(isa.Inst{Op: isa.OpDiv, Dst: reg, Src: reg})
		case 9:
			add(isa.Inst{Op: isa.OpPush, Src: reg})
		case 10:
			add(isa.Inst{Op: isa.OpPush, Src: mem})
		case 11:
			add(isa.Inst{Op: isa.OpPop, Dst: reg})
		case 12:
			add(isa.Inst{Op: isa.OpPushM, RegMask: uint16(rng.Intn(1 << 16))})
		case 13:
			add(isa.Inst{Op: isa.OpLea, Dst: reg, Src: mem}) // logged, never charged
		case 14:
			add(isa.Inst{Op: isa.OpLeave})
		default:
			add(isa.Inst{Op: isa.OpNop})
		}
	}
	switch rng.Intn(6) {
	case 0:
		add(isa.Inst{Op: isa.OpJcc, Target: addr + 64 + uint32(rng.Intn(64))})
	case 1:
		add(isa.Inst{Op: isa.OpRet})
	case 2:
		add(isa.Inst{Op: isa.OpCall})
	case 3:
		add(isa.Inst{Op: isa.OpBx, Dst: isa.R(isa.LR)})
	case 4:
		add(isa.Inst{Op: isa.OpPopM, RegMask: uint16(rng.Intn(1<<16)) | 1<<isa.PC})
	}
	var eas []uint32
	for i := range insts {
		in := &insts[i]
		slots := 0
		if in.Src.Kind == isa.OpdMem {
			slots++
		}
		if in.Dst.Kind == isa.OpdMem {
			slots++
		}
		if in.Op.StackAccess() {
			slots++
		}
		for ; slots > 0; slots-- {
			if fresh != nil {
				*fresh += 64
				eas = append(eas, *fresh)
				continue
			}
			// 8 sets × 4 lines each against 2 ways: frequent misses.
			line := uint32(rng.Intn(8) + 256*rng.Intn(4))
			eas = append(eas, 0x100000+line*64+uint32(rng.Intn(64)))
		}
	}
	return insts, eas
}

// requireSameModel compares everything a commit can change.
func requireSameModel(t *testing.T, label string, ref, got *Model) {
	t.Helper()
	if math.Float64bits(ref.Cycles) != math.Float64bits(got.Cycles) {
		t.Fatalf("%s: cycles %v (reference) vs %v, delta %g",
			label, ref.Cycles, got.Cycles, got.Cycles-ref.Cycles)
	}
	if ref.Counts != got.Counts {
		t.Fatalf("%s: counts %+v vs %+v", label, ref.Counts, got.Counts)
	}
	for _, c := range [][2]*cacheSim{{ref.ICache, got.ICache}, {ref.DCache, got.DCache}} {
		if c[0].Hits() != c[1].Hits() || c[0].Misses != c[1].Misses {
			t.Fatalf("%s: cache %d/%d vs %d/%d", label, c[0].Hits(), c[0].Misses, c[1].Hits(), c[1].Misses)
		}
	}
	if ref.Bpred.Lookups != got.Bpred.Lookups || ref.Bpred.Mispredicts != got.Bpred.Mispredicts {
		t.Fatalf("%s: bpred %d/%d vs %d/%d", label,
			ref.Bpred.Lookups, ref.Bpred.Mispredicts, got.Bpred.Lookups, got.Bpred.Mispredicts)
	}
}

// cloneModel deep-copies a model's cache and predictor state.
func cloneModel(mo *Model) *Model {
	c := *mo
	ic, dc, bp := *mo.ICache, *mo.DCache, *mo.Bpred
	ic.tags = append([]uint32(nil), ic.tags...)
	dc.tags = append([]uint32(nil), dc.tags...)
	bp.table = append([]uint8(nil), bp.table...)
	c.ICache, c.DCache, c.Bpred = &ic, &dc, &bp
	return &c
}

// TestSummaryCommitExact commits random blocks through the summary path
// and the per-instruction path of two models kept in lockstep, starting
// each commit below 2^10, and just below, at and just above every power
// of two from 2^10 to 2^40 — "just" measured in the block's own charge,
// so that about half of the commits started below a power of two cross
// it. Whenever the guard admits a commit, the result must equal the
// in-order float64 sum bit for bit; a commit whose in-order sum crosses
// a power of two must never be admitted.
func TestSummaryCommitExact(t *testing.T) {
	for _, core := range []CoreConfig{ARMCore(), X86Core()} {
		t.Run(core.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			ref, got := NewModel(core), NewModel(core)
			if !got.fix.ok {
				t.Fatal("Table 1 core rejected by the fixed-point check")
			}
			fresh := uint32(1 << 24)
			var admitted, rejected, crossed int
			var taken uint32 // the pending jcc's target, 0 when none
			// commit draws a block and commits it from start(charge),
			// where charge is the block's in-order charge measured on a
			// copy of the reference model. Half the blocks after a jcc
			// start at its target, so branches resolve both ways.
			commit := func(label string, start func(charge float64) float64) {
				at := uint32(0)
				if rng.Intn(2) == 0 {
					at = taken
				}
				var insts []isa.Inst
				var eas []uint32
				if rng.Intn(2) == 0 {
					insts, eas = randBlock(rng, &fresh, at)
				} else {
					insts, eas = randBlock(rng, nil, at)
				}
				taken = 0
				if last := insts[len(insts)-1]; last.Op == isa.OpJcc {
					taken = last.Target
				}
				bt := isa.SummarizeBlock(insts, nil)
				rat := rng.Intn(2) == 0
				ref.RATEnabled, got.RATEnabled = rat, rat
				probe := cloneModel(ref)
				probe.Cycles = 0x1p20
				probe.CommitBlock(nil, insts, nil, eas)
				cy0 := start(probe.Cycles - 0x1p20)
				ref.Cycles, got.Cycles = cy0, cy0
				before := got.fastCommits
				ref.CommitBlock(nil, insts, nil, eas)
				got.CommitBlock(nil, insts, &bt, eas)
				requireSameModel(t, label, ref, got)
				_, e0 := math.Frexp(cy0)
				_, e1 := math.Frexp(ref.Cycles)
				if e1 != e0 {
					crossed++
				}
				if got.fastCommits == before {
					rejected++
					return
				}
				admitted++
				if cy0 < 0x1p10 {
					t.Fatalf("%s: admitted a commit at %v, below 2^10", label, cy0)
				}
				if e1 != e0 {
					t.Fatalf("%s: admitted a commit crossing a power of two: %v -> %v", label, cy0, ref.Cycles)
				}
			}
			for i := 0; i < 200; i++ {
				commit("below 2^10", func(float64) float64 { return 1024 * rng.Float64() })
			}
			for e := 10; e <= 40; e++ {
				p := math.Ldexp(1, e)
				for i := 0; i < 60; i++ {
					commit("below", func(c float64) float64 { return p - 2*c*rng.Float64() })
					commit("at", func(float64) float64 { return p })
					commit("above", func(c float64) float64 { return p + 2*c*rng.Float64() })
					commit("one ulp below", func(float64) float64 { return math.Nextafter(p, 0) })
				}
			}
			t.Logf("%s: %d commits admitted, %d rejected (%d crossed a power of two)",
				core.Name, admitted, rejected, crossed)
			if admitted == 0 || crossed == 0 {
				t.Fatalf("guard untested: %d admitted, %d crossed", admitted, crossed)
			}
		})
	}
}

// runStepAndRun runs bin on ISA k to exit twice under models of core:
// single-stepped, and through fused Run. It returns both models.
func runStepAndRun(t *testing.T, bin func() *proc.Process, core CoreConfig) (step, run *Model) {
	t.Helper()
	ps, pr := bin(), bin()
	step, run = NewModel(core), NewModel(core)
	step.Attach(ps.M)
	run.Attach(pr.M)
	for !ps.M.Halted {
		if err := ps.M.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	for !pr.M.Halted {
		if _, err := pr.Run(1 << 20); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if ps.M.State != pr.M.State {
		t.Fatalf("state diverged:\n step: %+v\n  run: %+v", ps.M.State, pr.M.State)
	}
	requireSameModel(t, "at exit", step, run)
	return step, run
}

// newProc compiles profile name once and returns a constructor of fresh
// processes for it on ISA k.
func newProc(t *testing.T, name string, k isa.Kind) func() *proc.Process {
	t.Helper()
	prof, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	bin, err := workload.Compile(prof)
	if err != nil {
		t.Fatal(err)
	}
	return func() *proc.Process {
		p, err := proc.New(bin, k)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// TestSummaryFallsBackOnInexactCore: a core whose ROB exposure is not a
// multiple of 1/16 (24/40 = 0.6) fails the fixed-point check, so every
// commit takes the per-instruction path and Step- and Run-driven models
// still agree bit for bit.
func TestSummaryFallsBackOnInexactCore(t *testing.T) {
	for _, k := range isa.Kinds {
		core := CoreFor(k)
		core.ROBSize = 40
		if NewModel(core).fix.ok {
			t.Fatalf("%s: exposure 0.6 accepted by the fixed-point check", k)
		}
		_, run := runStepAndRun(t, newProc(t, "libquantum", k), core)
		if run.blockCommits == 0 || run.fastCommits != 0 {
			t.Fatalf("%s: %d of %d whole-block commits took the summary path", k, run.fastCommits, run.blockCommits)
		}
	}
}

// TestSummaryFastPathShare: on real workloads nearly every whole-block
// commit takes the summary path, so the bit-identity tests exercise it
// rather than passing on the fallback.
func TestSummaryFastPathShare(t *testing.T) {
	for _, name := range []string{"libquantum", "httpd"} {
		for _, k := range isa.Kinds {
			_, run := runStepAndRun(t, newProc(t, name, k), CoreFor(k))
			share := float64(run.fastCommits) / float64(run.blockCommits)
			t.Logf("%s/%s: %d of %d whole-block commits fast (%.2f%%)",
				name, k, run.fastCommits, run.blockCommits, 100*share)
			if share < 0.95 {
				t.Fatalf("%s/%s: fast-path share %.3f below 0.95", name, k, share)
			}
		}
	}
}
