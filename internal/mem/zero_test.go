package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// bytesPerRun returns the average heap bytes f allocates per call over
// runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDemandZeroAllocs pins the allocation profile of demand-zero pages:
// mapping allocates page-table entries but no page data, a snapshot and a
// fork allocate nothing per page (the fork reads the snapshot's frozen
// table in place), and a page's first write allocates exactly its 4 KiB
// frame.
func TestDemandZeroAllocs(t *testing.T) {
	const cache = 2 << 20 // one DBT code cache
	mapCache := func() { New().Map("cache", 0x40000000, cache, PermRWX) }
	if a := testing.AllocsPerRun(10, mapCache); a > 64 {
		t.Errorf("mapping 2 MiB: %.0f allocs, want <= 64", a)
	}
	if b := bytesPerRun(10, mapCache); b > 256<<10 {
		t.Errorf("mapping 2 MiB: %d bytes, want <= 256 KiB", b)
	}

	m := New()
	m.Map("image", 0, 1024*PageSize, PermRW)
	for pn := uint32(0); pn < 1024; pn += 2 {
		if err := m.WriteWord(pn*PageSize, pn); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(10, func() { m.Snapshot().Fork() }); a > 64 {
		t.Errorf("Snapshot().Fork() of 1024 pages: %.0f allocs, want <= 64", a)
	}
	s := m.Snapshot()
	if b := bytesPerRun(10, func() { s.Fork() }); b > 8<<10 {
		t.Errorf("Fork() of 1024 pages: %d bytes, want <= 8 KiB", b)
	}

	const writes = 100
	w := New()
	w.Map("heap", 0, (2*writes+1)*PageSize, PermRW)
	next := uint32(0)
	first := func() {
		if err := w.WriteWord(next*PageSize, 1); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if a := testing.AllocsPerRun(writes, first); a != 1 {
		t.Errorf("first write to a fresh page: %.0f allocs, want 1", a)
	}
	if b := bytesPerRun(writes, first); b < PageSize || b >= 2*PageSize {
		t.Errorf("first write to a fresh page: %d bytes, want one %d-byte page", b, PageSize)
	}
	again := func() {
		if err := w.WriteWord(8, 2); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(writes, again); a != 0 {
		t.Errorf("second write to a page: %.0f allocs, want 0", a)
	}
}

// TestDemandZeroCowAccounting: a never-written page is neither shared nor
// a copy-on-write break until a snapshot sees it; after that it is shared
// like every other page, and a fork's first write to it is one break.
func TestDemandZeroCowAccounting(t *testing.T) {
	m := New()
	m.Map("data", 0, 4*PageSize, PermRW)
	if err := m.Write(0, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if m.SharedPages() != 0 || m.CowBroken() != 0 {
		t.Fatalf("never-snapshotted memory: shared=%d broken=%d, want 0/0", m.SharedPages(), m.CowBroken())
	}

	s := m.Snapshot()
	if m.SharedPages() != 4 {
		t.Fatalf("source after snapshot: shared=%d, want 4", m.SharedPages())
	}
	f := s.Fork()
	if f.SharedPages() != 4 || f.CowBroken() != 0 {
		t.Fatalf("fresh fork: shared=%d broken=%d, want 4/0", f.SharedPages(), f.CowBroken())
	}
	const at = 2*PageSize + 100
	if err := f.Write(at, []byte("fork")); err != nil {
		t.Fatal(err)
	}
	if f.SharedPages() != 3 || f.CowBroken() != 1 {
		t.Fatalf("after first write to a never-written page: shared=%d broken=%d, want 3/1", f.SharedPages(), f.CowBroken())
	}
	want := append(append(make([]byte, 4), "fork"...), make([]byte, 4)...)
	got := make([]byte, len(want))
	if err := f.Read(at-4, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fork reads %q, %v; want %q", got, err, want)
	}
	for name, mm := range map[string]*Memory{"source": m, "sibling fork": s.Fork()} {
		if err := mm.Read(at-4, got); err != nil || !bytes.Equal(got, make([]byte, len(want))) {
			t.Fatalf("%s reads %q, %v; want zeros", name, got, err)
		}
	}
	if zeroPage != ([PageSize]byte{}) {
		t.Fatal("the zero page was written")
	}
}

// TestZeroPageRaceHammer: fresh memories in many goroutines all start on
// the one zero page. Each must read zeros from the pages it has not
// written yet and its own words from the ones it has; run with -race, a
// write that reached the shared zero page is also a data race.
func TestZeroPageRaceHammer(t *testing.T) {
	const workers, pages = 8, 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				m := New()
				m.Map("data", 0, pages*PageSize, PermRW)
				for pn := uint32(0); pn < pages; pn++ {
					if v, err := m.ReadWord(pn * PageSize); err != nil || v != 0 {
						errs <- fmt.Sprintf("worker %d: never-written page %d reads %#x, %v", id, pn, v, err)
						return
					}
					if err := m.WriteWord(pn*PageSize, id<<16|pn); err != nil {
						errs <- err.Error()
						return
					}
				}
				for pn := uint32(0); pn < pages; pn++ {
					if v, err := m.ReadWord(pn * PageSize); err != nil || v != id<<16|pn {
						errs <- fmt.Sprintf("worker %d: page %d reads %#x, %v; want %#x", id, pn, v, err, id<<16|pn)
						return
					}
				}
			}
		}(uint32(w + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
