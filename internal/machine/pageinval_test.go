package machine

import (
	"errors"
	"sync"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
)

// TestNonExecAdjacentWriteEvictsNothing writes into a data page directly
// adjacent to hot code and verifies the block cache is untouched: no
// reconcile, no evictions, no re-decodes.
func TestNonExecAdjacentWriteEvictsNothing(t *testing.T) {
	a := isa.NewAsm(isa.X86, textBase)
	a.Label("loop")
	a.Emit(isa.Inst{Op: isa.OpInc, Dst: isa.R(isa.EAX)})
	a.Jmp("loop")
	code, _, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ram := mem.New()
	ram.Map("text", textBase, mem.PageSize, mem.PermRX)
	dataBase := uint32(textBase + mem.PageSize)
	ram.Map("data", dataBase, mem.PageSize, mem.PermRW)
	ram.WriteForce(textBase, code)
	m := New(isa.X86, ram)
	m.PC = textBase

	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	before := m.BlockStats()
	if err := ram.Write(dataBase, []byte{0xAA, 0xBB, 0xCC, 0xDD}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	after := m.BlockStats()
	if after.Invalidations != before.Invalidations {
		t.Fatalf("data-page write triggered a reconcile: %d -> %d invalidations",
			before.Invalidations, after.Invalidations)
	}
	if after.BlocksEvicted != before.BlocksEvicted {
		t.Fatalf("data-page write evicted blocks: %d -> %d",
			before.BlocksEvicted, after.BlocksEvicted)
	}
	if after.Misses != before.Misses {
		t.Fatalf("data-page write forced re-decodes: misses %d -> %d",
			before.Misses, after.Misses)
	}
}

// TestRangedInvalidationKeepsOtherRegionBlocks caches blocks from two
// disjoint executable regions (the shape of two per-ISA DBT code caches),
// invalidates one region's range, and verifies only its blocks are evicted
// while the other region's decodes keep hitting.
func TestRangedInvalidationKeepsOtherRegionBlocks(t *testing.T) {
	emitLoop := func(k isa.Kind, base uint32) []byte {
		a := isa.NewAsm(k, base)
		a.Label("loop")
		a.Emit(isa.Inst{Op: isa.OpInc, Dst: isa.R(isa.EAX)})
		a.Jmp("loop")
		code, _, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	baseA := uint32(textBase)
	baseB := uint32(textBase + 16*mem.PageSize)
	codeA := emitLoop(isa.X86, baseA)
	codeB := emitLoop(isa.X86, baseB)
	ram := mem.New()
	ram.Map("cacheA", baseA, mem.PageSize, mem.PermRX)
	ram.Map("cacheB", baseB, mem.PageSize, mem.PermRX)
	ram.WriteForce(baseA, codeA)
	ram.WriteForce(baseB, codeB)
	m := New(isa.X86, ram)

	m.PC = baseA
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	m.PC = baseB
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	warm := m.BlockStats()
	if warm.Blocks < 2 {
		t.Fatalf("expected blocks cached from both regions, have %d", warm.Blocks)
	}

	ram.InvalidateCodeRange(baseA, mem.PageSize)

	// Region B survives: rerunning it must not re-decode anything.
	m.PC = baseB
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	afterB := m.BlockStats()
	if afterB.Misses != warm.Misses {
		t.Fatalf("region B re-decoded after region A invalidation: misses %d -> %d",
			warm.Misses, afterB.Misses)
	}
	if afterB.PartialInvalidations != warm.PartialInvalidations+1 {
		t.Fatalf("partial invalidations %d -> %d, want one more",
			warm.PartialInvalidations, afterB.PartialInvalidations)
	}
	if afterB.FullInvalidations != warm.FullInvalidations {
		t.Fatalf("ranged invalidation was counted as full: %d -> %d",
			warm.FullInvalidations, afterB.FullInvalidations)
	}
	if afterB.BlocksEvicted == warm.BlocksEvicted {
		t.Fatal("no blocks evicted for the invalidated region")
	}
	if afterB.Invalidations != afterB.PartialInvalidations+afterB.FullInvalidations {
		t.Fatalf("legacy invalidations %d != partial %d + full %d",
			afterB.Invalidations, afterB.PartialInvalidations, afterB.FullInvalidations)
	}

	// Region A was evicted: rerunning it must re-decode.
	m.PC = baseA
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if final := m.BlockStats(); final.Misses <= afterB.Misses {
		t.Fatal("region A served stale decodes after its range was invalidated")
	}
}

// TestConcurrentMachinesCodeWriteHammer runs eight isolated machines under
// continuous code mutation — ranged writes, ranged invalidations, and
// bursts that overflow the write log — to give the race detector a workout
// over the write-log replay, whole-cache drop and block-storage recycling
// paths.
func TestConcurrentMachinesCodeWriteHammer(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			a := isa.NewAsm(isa.X86, textBase)
			loopProgram(1 << 30)(a)
			code, _, err := a.Assemble()
			if err != nil {
				errs <- err
				return
			}
			ram := mem.New()
			ram.Map("text", textBase, uint32(len(code))+mem.PageSize, mem.PermRWX)
			ram.WriteForce(textBase, code)
			m := New(isa.X86, ram)
			m.PC = textBase
			for round := 0; round < 200; round++ {
				if _, err := m.Run(500); err != nil {
					errs <- err
					return
				}
				switch (round + seed) % 3 {
				case 0:
					// Rewrite the loop body in place (same bytes, new gen).
					ram.WriteForce(textBase, code)
				case 1:
					ram.InvalidateCodeRange(textBase, uint32(len(code)))
				case 2:
					for i := 0; i < mem.CodeWriteLogSize+1; i++ {
						ram.InvalidateCodeRange(textBase, 1)
					}
				}
			}
			bs := m.BlockStats()
			if bs.PartialInvalidations == 0 || bs.FullInvalidations == 0 || bs.BlocksEvicted == 0 {
				errs <- errNoChurn
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errNoChurn = errors.New("hammer saw no invalidation traffic")
