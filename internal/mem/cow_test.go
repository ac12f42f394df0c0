package mem

import (
	"bytes"
	"sync"
	"testing"
)

// TestForkDivergence: a write in one fork must be invisible in sibling
// forks and in the snapshot itself.
func TestForkDivergence(t *testing.T) {
	m := New()
	m.Map("data", 0x1000, PageSize, PermRW)
	if err := m.Write(0x1000, []byte("original")); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	a, b := s.Fork(), s.Fork()

	if err := a.Write(0x1000, []byte("mutant-A")); err != nil {
		t.Fatal(err)
	}
	check := func(name string, mm *Memory, want string) {
		t.Helper()
		buf := make([]byte, 8)
		if err := mm.Read(0x1000, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != want {
			t.Fatalf("%s: got %q want %q", name, buf, want)
		}
	}
	check("fork A", a, "mutant-A")
	check("fork B", b, "original")
	check("source", m, "original")

	// The snapshot's bytes must survive the SOURCE writing too.
	if err := m.Write(0x1000, []byte("mutant-S")); err != nil {
		t.Fatal(err)
	}
	c := s.Fork()
	check("late fork", c, "original")
	check("source", m, "mutant-S")
}

// TestForkCowAccounting: forks start fully shared, privatize exactly the
// written pages, and count the breaks.
func TestForkCowAccounting(t *testing.T) {
	m := New()
	m.Map("data", 0, 4*PageSize, PermRW)
	s := m.Snapshot()
	if m.SharedPages() != 4 {
		t.Fatalf("source shared pages = %d, want 4", m.SharedPages())
	}
	f := s.Fork()
	if f.SharedPages() != 4 || f.CowBroken() != 0 {
		t.Fatalf("fresh fork: shared=%d broken=%d, want 4/0", f.SharedPages(), f.CowBroken())
	}
	// One write spanning two pages privatizes both, leaves the rest shared.
	if err := f.Write(PageSize-2, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if f.SharedPages() != 2 || f.CowBroken() != 2 {
		t.Fatalf("after spanning write: shared=%d broken=%d, want 2/2", f.SharedPages(), f.CowBroken())
	}
	// Rewriting an already-private page breaks nothing further.
	if err := f.Write(0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if f.CowBroken() != 2 {
		t.Fatalf("rewrite broke again: broken=%d, want 2", f.CowBroken())
	}
}

// TestForkCarriesCodeGens: the code generation and the write log must
// carry across Snapshot/Fork, and generation bumps after the fork must
// stay private to the Memory that made them.
func TestForkCarriesCodeGens(t *testing.T) {
	m := New()
	m.Map("text", 0x1000, 2*PageSize, PermRWX)
	if err := m.Write(0x1000, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x2000, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	f := s.Fork()

	if f.CodeGen() != m.CodeGen() {
		t.Fatalf("code gen diverged at fork: %d vs %d", f.CodeGen(), m.CodeGen())
	}
	// Both ranged writes must still be replayable from the fork's log.
	if w, ok := f.CodeWriteAt(f.CodeGen() - 1); !ok || w.Addr != 0x1000 || w.Size != 1 {
		t.Fatalf("fork write log (older): ok=%v w=%+v", ok, w)
	}
	if w, ok := f.CodeWriteAt(f.CodeGen()); !ok || w.Addr != 0x2000 || w.Size != 1 {
		t.Fatalf("fork write log (latest): ok=%v w=%+v", ok, w)
	}

	// A code write in the fork bumps only the fork; one in the source
	// bumps only the source.
	g0 := m.CodeGen()
	if err := f.Write(0x1004, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if f.CodeGen() != g0+1 {
		t.Fatalf("fork gen = %d, want %d", f.CodeGen(), g0+1)
	}
	if m.CodeGen() != g0 {
		t.Fatalf("source gen moved to %d on a fork write", m.CodeGen())
	}
	if err := m.Write(0x2004, []byte{0xDD}); err != nil {
		t.Fatal(err)
	}
	if w, ok := f.CodeWriteAt(f.CodeGen()); !ok || w.Addr != 0x1004 {
		t.Fatalf("source write leaked into the fork's log: ok=%v w=%+v", ok, w)
	}
	if w, ok := m.CodeWriteAt(m.CodeGen()); !ok || w.Addr != 0x2004 {
		t.Fatalf("source write log: ok=%v w=%+v", ok, w)
	}
}

// TestCloneIsCow: a fork of a fresh snapshot isolates both directions
// while sharing bytes with its source until first write.
func TestCloneIsCow(t *testing.T) {
	m := New()
	m.Map("data", 0, PageSize, PermRW)
	if err := m.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c := m.Snapshot().Fork()
	if c.SharedPages() != 1 || m.SharedPages() != 1 {
		t.Fatalf("clone not shared: %d/%d", c.SharedPages(), m.SharedPages())
	}
	if err := m.Write(0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1, []byte{8}); err != nil {
		t.Fatal(err)
	}
	mb, cb := make([]byte, 3), make([]byte, 3)
	_ = m.Read(0, mb)
	_ = c.Read(0, cb)
	if !bytes.Equal(mb, []byte{9, 2, 3}) || !bytes.Equal(cb, []byte{1, 8, 3}) {
		t.Fatalf("divergence wrong: m=%v c=%v", mb, cb)
	}
}

// TestForkRaceHammer: many forks of one snapshot reading and writing
// concurrently must neither race (run with -race) nor observe each other.
func TestForkRaceHammer(t *testing.T) {
	m := New()
	m.Map("data", 0, 8*PageSize, PermRW)
	for i := uint32(0); i < 8; i++ {
		if err := m.WriteWord(i*PageSize, 0xFEED0000+i); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			f := s.Fork()
			for i := 0; i < 200; i++ {
				pn := uint32(i) % 8
				v, err := f.ReadWord(pn * PageSize)
				if err != nil {
					errs <- err
					return
				}
				want := 0xFEED0000 + pn
				if i >= 8 { // after one lap, our own writes are visible
					want = id<<16 | pn
				}
				if v != want {
					errs <- &Fault{Addr: pn * PageSize}
					return
				}
				if err := f.WriteWord(pn*PageSize, id<<16|pn); err != nil {
					errs <- err
					return
				}
			}
		}(uint32(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("hammer: %v", err)
	}
}
