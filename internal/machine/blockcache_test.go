package machine

import (
	"sync"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
)

// loopProgram emits a small countdown loop ending in a halt.
func loopProgram(iters int32) func(a *isa.Asm) {
	return func(a *isa.Asm) {
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.ECX), Src: isa.I(iters)})
		a.Label("loop")
		a.Emit(isa.Inst{Op: isa.OpDec, Dst: isa.R(isa.ECX)})
		a.Emit(isa.Inst{Op: isa.OpCmp, Dst: isa.R(isa.ECX), Src: isa.I(0)})
		a.Jcc(isa.CondNE, "loop")
		a.Emit(isa.Inst{Op: isa.OpHlt})
	}
}

func TestBlockCacheCountsHitsAndMisses(t *testing.T) {
	m, _ := load(t, isa.X86, loopProgram(1000))
	mustRun(t, m)
	bs := m.BlockStats()
	if bs.Misses == 0 {
		t.Fatal("no block refills recorded")
	}
	if bs.Misses > 8 {
		t.Fatalf("loop decoded %d blocks; expected a handful", bs.Misses)
	}
	if bs.Hits < 900 {
		t.Fatalf("hits = %d; the loop body should be served from cache", bs.Hits)
	}
	if bs.Invalidations != 0 {
		t.Fatalf("unexpected invalidations: %d", bs.Invalidations)
	}
	if r := bs.HitRatio(); r < 0.95 {
		t.Fatalf("hit ratio = %.3f, want >= 0.95", r)
	}
	if bs.Blocks == 0 {
		t.Fatal("no blocks resident after the run")
	}
}

// TestSelfModifyingCodeRedecodes overwrites an upcoming instruction from
// inside the program and checks the block cache notices before executing
// it — even though the store and its victim share one basic block. The
// program layout is fixed so the store's absolute target is known at
// assembly time: the patch instruction (mov [imm32], imm32) encodes to 10
// bytes, so the victim mov's immediate field sits at textBase+11.
func TestSelfModifyingCodeRedecodes(t *testing.T) {
	a := isa.NewAsm(isa.X86, textBase)
	a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.M(isa.MemRef{Disp: textBase + 11}), Src: isa.I(99)})
	a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.EAX), Src: isa.I(42)})
	a.Emit(isa.Inst{Op: isa.OpHlt})
	code, _, err := a.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if code[10] != 0xB8 {
		t.Fatalf("layout drifted: mov eax,imm not at offset 10 (got %#x)", code[10])
	}
	ram := mem.New()
	ram.Map("text", textBase, uint32(len(code))+mem.PageSize, mem.PermRWX)
	ram.WriteForce(textBase, code)
	m := New(isa.X86, ram)
	m.PC = textBase
	mustRun(t, m)
	if got := m.Regs[isa.EAX]; got != 99 {
		t.Fatalf("eax = %d; stale decode executed (want the patched 99)", got)
	}
	if bs := m.BlockStats(); bs.Invalidations == 0 {
		t.Fatal("store into executable text did not invalidate the block cache")
	}
}

// TestLogOverflowDropsEverything: more code writes between two dispatches
// than the memory's write log holds leave the cache unable to tell what
// changed, so it drops every block — one full invalidation — and re-decodes.
func TestLogOverflowDropsEverything(t *testing.T) {
	m, _ := load(t, isa.X86, func(a *isa.Asm) {
		a.Label("loop")
		a.Emit(isa.Inst{Op: isa.OpInc, Dst: isa.R(isa.EAX)})
		a.Jmp("loop")
	})
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	before := m.BlockStats()
	if before.Blocks == 0 {
		t.Fatal("no blocks cached after first run")
	}
	for i := 0; i < mem.CodeWriteLogSize+1; i++ {
		m.Mem.InvalidateCodeRange(textBase, 1)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	after := m.BlockStats()
	if after.Invalidations != before.Invalidations+1 ||
		after.FullInvalidations != before.FullInvalidations+1 {
		t.Fatalf("invalidations %d -> %d (full %d -> %d), want one more full",
			before.Invalidations, after.Invalidations,
			before.FullInvalidations, after.FullInvalidations)
	}
	if after.BlocksEvicted != before.BlocksEvicted+uint64(before.Blocks) {
		t.Fatalf("evicted %d -> %d, want all %d cached blocks dropped",
			before.BlocksEvicted, after.BlocksEvicted, before.Blocks)
	}
	if after.Misses <= before.Misses {
		t.Fatal("no re-decode after the write log overflowed")
	}
}

// TestConcurrentMachines exercises the block cache under -race: parallel
// experiment cells each own a machine + memory and must share nothing.
func TestConcurrentMachines(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := isa.NewAsm(isa.X86, textBase)
			loopProgram(5000)(a)
			code, _, err := a.Assemble()
			if err != nil {
				errs <- err
				return
			}
			ram := mem.New()
			ram.Map("text", textBase, uint32(len(code))+mem.PageSize, mem.PermRX)
			ram.WriteForce(textBase, code)
			m := New(isa.X86, ram)
			m.PC = textBase
			if _, err := m.Run(100000); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
