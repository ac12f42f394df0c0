package mem

import "testing"

// TestCodeGenTracksExecutableWrites: a write into an executable page bumps
// the code generation once and logs exactly the written range; writes to
// non-executable pages are invisible to code consumers.
func TestCodeGenTracksExecutableWrites(t *testing.T) {
	m := New()
	m.Map("text", 0x1000, 2*PageSize, PermRWX)
	m.Map("data", 0x1000+2*PageSize, PageSize, PermRW)
	base := m.CodeGen()

	if err := m.Write(0x1000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	g := m.CodeGen()
	if g != base+1 {
		t.Fatalf("code gen %d -> %d, want one bump", base, g)
	}
	if w, ok := m.CodeWriteAt(g); !ok || w.Addr != 0x1000 || w.Size != 3 {
		t.Fatalf("write log entry = %+v ok=%v, want addr=0x1000 size=3", w, ok)
	}

	for _, write := range []func() error{
		func() error { return m.Write(0x1000+2*PageSize, []byte{9}) },
		func() error { return m.WriteWord(0x1000+2*PageSize, 9) },
		func() error { return m.StoreByte(0x1000+2*PageSize, 9) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	m.WriteForce(0x1000+2*PageSize, []byte{9})
	if m.CodeGen() != g {
		t.Fatalf("data-page writes bumped code gen %d -> %d", g, m.CodeGen())
	}
}

// TestWriteSpanningPagesBumpsEachExecPage: a write straddling two
// executable pages is one generation bump whose single log entry covers
// both pages.
func TestWriteSpanningPagesBumpsEachExecPage(t *testing.T) {
	m := New()
	m.Map("text", 0, 2*PageSize, PermRWX)
	base := m.CodeGen()
	buf := make([]byte, 8)
	if err := m.Write(PageSize-4, buf); err != nil {
		t.Fatal(err)
	}
	g := m.CodeGen()
	if g != base+1 {
		t.Fatalf("straddling write: code gen %d -> %d, want one bump", base, g)
	}
	w, ok := m.CodeWriteAt(g)
	if !ok || w.Addr != PageSize-4 || w.Size != 8 {
		t.Fatalf("write log entry = %+v ok=%v, want addr=%d size=8", w, ok, PageSize-4)
	}
}

// TestInvalidateCodeRangeScopesToPages: a ranged invalidation bumps once
// and logs exactly its range; a zero-size range changes nothing.
func TestInvalidateCodeRangeScopesToPages(t *testing.T) {
	m := New()
	m.Map("text", 0, 4*PageSize, PermRX)
	base := m.CodeGen()
	m.InvalidateCodeRange(PageSize, PageSize) // page 1 only
	g := m.CodeGen()
	if g != base+1 {
		t.Fatalf("code gen %d -> %d, want one bump", base, g)
	}
	if w, ok := m.CodeWriteAt(g); !ok || w.Addr != PageSize || w.Size != PageSize {
		t.Fatalf("write log entry = %+v ok=%v, want addr=%#x size=%#x", w, ok, PageSize, PageSize)
	}
	m.InvalidateCodeRange(0, 0)
	if m.CodeGen() != g {
		t.Fatal("zero-size invalidation bumped the generation")
	}
}

func TestCodeWriteLogRotates(t *testing.T) {
	m := New()
	m.Map("text", 0, 32*PageSize, PermRWX)
	first := m.CodeGen() + 1
	n := CodeWriteLogSize + 8
	for i := 0; i < n; i++ {
		m.InvalidateCodeRange(uint32(i%32)*PageSize, 4)
	}
	last := m.CodeGen()
	// Recent entries replay exactly; entries older than the ring are gone.
	for g := last - CodeWriteLogSize + 1; g <= last; g++ {
		w, ok := m.CodeWriteAt(g)
		if !ok {
			t.Fatalf("gen %d missing from log (last=%d)", g, last)
		}
		wantAddr := uint32((int(g-first))%32) * PageSize
		if w.Addr != wantAddr || w.Size != 4 {
			t.Fatalf("gen %d replayed %+v, want addr=%#x size=4", g, w, wantAddr)
		}
	}
	if _, ok := m.CodeWriteAt(last - CodeWriteLogSize); ok {
		t.Fatalf("gen %d should have rotated out", last-CodeWriteLogSize)
	}
}

// TestMapRepermissionLogsPageSpan: re-mapping executable pages is one
// generation bump logging the whole page span; mapping fresh pages, which
// hold no decodable bytes yet, bumps nothing.
func TestMapRepermissionLogsPageSpan(t *testing.T) {
	m := New()
	base := m.CodeGen()
	m.Map("text", PageSize, 2*PageSize, PermRX)
	if m.CodeGen() != base {
		t.Fatalf("fresh mapping bumped code gen %d -> %d", base, m.CodeGen())
	}
	if err := m.StoreByte(PageSize+8, 1); err == nil {
		t.Fatal("store into r-x text succeeded")
	}
	m.Map("text", PageSize+8, PageSize, PermRWX)
	g := m.CodeGen()
	if g != base+1 {
		t.Fatalf("re-permission: code gen %d -> %d, want one bump", base, g)
	}
	if w, ok := m.CodeWriteAt(g); !ok || w.Addr != PageSize || w.Size != 2*PageSize {
		t.Fatalf("write log entry = %+v ok=%v, want addr=%#x size=%#x", w, ok, PageSize, 2*PageSize)
	}
	if err := m.StoreByte(PageSize+8, 1); err != nil {
		t.Fatalf("store after re-permission to rwx: %v", err)
	}
}

// TestCloneCarriesPageGens: a clone (a fork of a fresh snapshot) starts at
// its source's code generation with the same replayable write log, and a
// code write on either side after the clone stays private to that side.
func TestCloneCarriesPageGens(t *testing.T) {
	m := New()
	m.Map("text", 0, 2*PageSize, PermRWX)
	if err := m.Write(PageSize, []byte{1}); err != nil {
		t.Fatal(err)
	}
	c := m.Snapshot().Fork()
	if c.CodeGen() != m.CodeGen() {
		t.Fatalf("clone gen %d, want %d", c.CodeGen(), m.CodeGen())
	}
	if w, ok := c.CodeWriteAt(c.CodeGen()); !ok || w.Addr != PageSize || w.Size != 1 {
		t.Fatalf("clone write log entry = %+v ok=%v, want addr=%#x size=1", w, ok, PageSize)
	}
	// Divergence after the clone stays private to each side.
	g := c.CodeGen()
	if err := m.Write(0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if c.CodeGen() != g {
		t.Fatal("write to original moved the clone's generation")
	}
	if w, ok := c.CodeWriteAt(c.CodeGen()); !ok || w.Addr != PageSize {
		t.Fatalf("original's write leaked into the clone's log: %+v ok=%v", w, ok)
	}
	if err := c.Write(PageSize+4, []byte{3}); err != nil {
		t.Fatal(err)
	}
	if m.CodeGen() != g+1 || c.CodeGen() != g+1 {
		t.Fatalf("gens after one write each: original %d clone %d, want both %d",
			m.CodeGen(), c.CodeGen(), g+1)
	}
	if w, ok := m.CodeWriteAt(m.CodeGen()); !ok || w.Addr != 0 {
		t.Fatalf("clone's write leaked into the original's log: %+v ok=%v", w, ok)
	}
}
