package machine

import (
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
)

// blockOfN returns a machine whose x86 code at 0x1000 is n-1 five-byte
// moves and a ret: one block of n instructions, inside one page.
func blockOfN(t *testing.T, n int) *Machine {
	t.Helper()
	a := isa.NewAsm(isa.X86, 0x1000)
	for i := 0; i < n-1; i++ {
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.EAX), Src: isa.I(int32(i))})
	}
	a.Emit(isa.Inst{Op: isa.OpRet})
	code, _, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New()
	mm.Map("text", 0x1000, mem.PageSize, mem.PermRX)
	mm.WriteForce(0x1000, code)
	return New(isa.X86, mm)
}

// refillAllocs reports the allocations of one refill of the block at
// 0x1000 into an emptied cache (its maps and pools keep their room, so
// only the refill itself counts): with recycled, the pools hold the
// storage of that block's previous decode, as after its eviction;
// without, they are empty, as on a freshly booted machine.
func refillAllocs(t *testing.T, n int, recycled bool) float64 {
	m := blockOfN(t, n)
	bc := &m.blocks
	var prev *Block
	refill := func() {
		clear(bc.blocks[isa.X86])
		clear(bc.byPage)
		bc.free, bc.freeFused = bc.free[:0], bc.freeFused[:0]
		if recycled && prev != nil {
			bc.recycle(prev)
		}
		m.PC = 0x1000
		b, err := bc.refill(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Insts) != n {
			t.Fatalf("block of %d instructions, want %d", len(b.Insts), n)
		}
		prev = b
	}
	refill()
	return testing.AllocsPerRun(20, refill)
}

// TestRefillAllocs pins what a block-cache refill allocates: decode and
// fusion fill the cache's BlockCap scratch, and the block keeps either
// recycled storage that fits or one exact-size allocation each for its
// instructions and fused entries. A 64-instruction block therefore costs
// no more allocations than a 2-instruction one, with or without recycled
// storage, and recycled storage saves allocations.
func TestRefillAllocs(t *testing.T) {
	for _, recycled := range []bool{false, true} {
		short := refillAllocs(t, 2, recycled)
		long := refillAllocs(t, BlockCap, recycled)
		if long > short {
			t.Errorf("recycled=%v: refill of %d instructions %.0f allocs, of 2 instructions %.0f",
				recycled, BlockCap, long, short)
		}
		t.Logf("recycled=%v: %.0f allocs per refill (2 and %d instructions)", recycled, short, BlockCap)
	}
	if fresh, reused := refillAllocs(t, BlockCap, false), refillAllocs(t, BlockCap, true); reused >= fresh {
		t.Errorf("refill into recycled storage %.0f allocs, into fresh storage %.0f", reused, fresh)
	}
}
