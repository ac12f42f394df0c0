package perf

// The live-state data-cache charge the model made under Step before Step
// logged its addresses, kept as the reference one-instruction commits are
// checked against, the way lru_test.go keeps the timestamp LRU.

import (
	"fmt"
	"slices"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/proc"
	"hipstr/internal/workload"
)

// liveRef is a reference machine.Timing for one-instruction commits: it
// charges observeFront, then each data-cache access at an address
// computed from the machine's registers, which hold the instruction's
// pre-execution state when Step commits. It ignores the address log.
type liveRef struct{ mo *Model }

func (r liveRef) CommitBlock(m *machine.Machine, insts []isa.Inst, _ *isa.BlockTiming, _ []uint32) {
	if len(insts) != 1 {
		panic("liveRef: live state describes only a one-instruction commit")
	}
	in := &insts[0]
	r.mo.Cycles = r.liveMem(m, in, r.mo.observeFront(in, r.mo.Cycles))
}

func (r liveRef) liveMem(m *machine.Machine, in *isa.Inst, cy float64) float64 {
	mo := r.mo
	charge := func(o isa.Operand, store bool) {
		if o.Kind != isa.OpdMem {
			return
		}
		ea := liveEA(m, o.Mem)
		lat := mo.DCache.access(ea)
		exp := mo.exp
		if store {
			mo.Counts.Stores++
			// Stores retire through the store queue; latency mostly hidden.
			cy += lat * exp * 0.3
		} else {
			mo.Counts.Loads++
			cy += lat * exp
		}
	}
	switch in.Op {
	case isa.OpMov, isa.OpLoad, isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpCmp, isa.OpTest, isa.OpMul, isa.OpDiv, isa.OpShl,
		isa.OpShr, isa.OpNeg, isa.OpNot, isa.OpInc, isa.OpDec:
		charge(in.Src, false)
		if in.Op == isa.OpMov || in.Op == isa.OpLoad {
			charge(in.Dst, true)
		} else {
			// Read-modify-write memory destination.
			if in.Dst.Kind == isa.OpdMem {
				charge(in.Dst, false)
				charge(in.Dst, true)
			}
		}
	case isa.OpStore:
		charge(in.Dst, true)
	case isa.OpPush:
		charge(in.Src, false)
		mo.Counts.Stores++
		cy += mo.DCache.access(m.SP()-4) * mo.exp * 0.3
	case isa.OpPop, isa.OpRet, isa.OpLeave:
		mo.Counts.Loads++
		cy += mo.DCache.access(m.SP()) * mo.exp
	case isa.OpPushM, isa.OpPopM:
		n := 0
		for r := 0; r < 16; r++ {
			if in.RegMask&(1<<r) != 0 {
				n++
			}
		}
		cy += float64(n) * mo.DCache.access(m.SP()) * mo.exp * 0.5
	}
	return cy
}

// liveEA computes a memory operand's effective address from m's registers.
func liveEA(m *machine.Machine, r isa.MemRef) uint32 {
	var a uint32 = uint32(r.Disp)
	if r.HasBase {
		a += m.Regs[r.Base]
	}
	if r.HasIndex {
		s := uint32(r.Scale)
		if s == 0 {
			s = 1
		}
		a += m.Regs[r.Index] * s
	}
	return a
}

// tee commits every range to two timings in turn.
type tee [2]machine.Timing

func (t tee) CommitBlock(m *machine.Machine, insts []isa.Inst, bt *isa.BlockTiming, eas []uint32) {
	t[0].CommitBlock(m, insts, bt, eas)
	t[1].CommitBlock(m, insts, bt, eas)
}

// liveStepCap bounds each single-stepped run of TestStepMatchesLiveReference.
const liveStepCap = 120_000

// TestStepMatchesLiveReference single-steps the nine compiled benchmarks
// on both ISAs with the model and the live reference both observing, and
// requires equal data-cache contents after every step and equal cycle
// totals, counts and cache and predictor statistics at the end: the
// addresses Step logs are the ones the live charge computes.
func TestStepMatchesLiveReference(t *testing.T) {
	if testing.Short() {
		t.Skip("single-steps every benchmark under two models")
	}
	for _, prof := range append(workload.Profiles(), workload.HTTPD()) {
		bin, err := workload.Compile(prof)
		if err != nil {
			t.Fatalf("compile %s: %v", prof.Name, err)
		}
		for _, k := range isa.Kinds {
			label := fmt.Sprintf("%s/%s", prof.Name, k)
			p, err := proc.New(bin, k)
			if err != nil {
				t.Fatal(err)
			}
			got, ref := NewModel(CoreFor(k)), NewModel(CoreFor(k))
			p.M.Timing = tee{got, liveRef{ref}}
			for p.M.Steps < liveStepCap && !p.M.Halted {
				if err := p.M.Step(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// Stack lines are nearly always resident, so an access at
				// the wrong stack address shows only in recency order.
				if !slices.Equal(ref.DCache.tags, got.DCache.tags) {
					t.Fatalf("%s: data-cache contents diverged at step %d", label, p.M.Steps)
				}
			}
			requireSameModel(t, label, ref, got)
		}
	}
}
