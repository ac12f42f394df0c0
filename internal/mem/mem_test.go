package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMapReadWrite(t *testing.T) {
	m := New()
	m.Map("data", 0x1000, 0x2000, PermRW)
	if err := m.WriteWord(0x1ffe, 0xDEADBEEF); err != nil { // straddles pages
		t.Fatal(err)
	}
	v, err := m.ReadWord(0x1ffe)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("got %#x", v)
	}
}

func TestPermissionFaults(t *testing.T) {
	m := New()
	m.Map("ro", 0x1000, 0x1000, PermR)
	if err := m.WriteWord(0x1000, 1); err == nil {
		t.Fatal("write to read-only page succeeded")
	}
	var f *Fault
	err := m.WriteWord(0x1000, 1)
	if !errors.As(err, &f) || !f.Mapped || f.Access != PermW {
		t.Fatalf("fault detail wrong: %v", err)
	}
	if _, err := m.ReadWord(0x5000); err == nil {
		t.Fatal("read of unmapped page succeeded")
	}
	if _, err := m.Fetch(0x1000, 4); err == nil {
		t.Fatal("fetch from non-executable page succeeded")
	}
}

func TestFetchStopsAtBoundary(t *testing.T) {
	m := New()
	m.Map("text", 0x1000, 0x1000, PermRX)
	// 0x2000.. is unmapped; a fetch near the end returns a short window.
	b, err := m.Fetch(0x1ffc, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 4 {
		t.Fatalf("window len %d, want 4", len(b))
	}
}

func TestRegions(t *testing.T) {
	m := New()
	m.Map("text", 0x8000, 0x1000, PermRX)
	m.Map("stack", 0x20000, 0x4000, PermRW)
	r, ok := m.Region("text")
	if !ok || r.Base != 0x8000 {
		t.Fatal("region lookup failed")
	}
	rs := m.Regions()
	if len(rs) != 2 || rs[0].Name != "text" || rs[1].Name != "stack" {
		t.Fatalf("Regions() = %v", rs)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.Map("data", 0x1000, 0x1000, PermRW)
	m.WriteWord(0x1000, 42)
	c := m.Snapshot().Fork()
	c.WriteWord(0x1000, 99)
	v, _ := m.ReadWord(0x1000)
	if v != 42 {
		t.Fatalf("clone aliased original: %d", v)
	}
	cv, _ := c.ReadWord(0x1000)
	if cv != 99 {
		t.Fatalf("clone write lost: %d", cv)
	}
	if _, ok := c.Region("data"); !ok {
		t.Fatal("clone dropped regions")
	}
}

func TestWriteForceMapsPages(t *testing.T) {
	m := New()
	m.WriteForce(0x7000, []byte{9, 9, 9})
	// Pages created by WriteForce carry no permissions: reads fault.
	if _, err := m.ReadWord(0x7000); err == nil {
		t.Fatal("WriteForce should not grant read permission")
	}
	m.Map("", 0x7000, 4, PermR)
	b := make([]byte, 3)
	if err := m.Read(0x7000, b); err != nil || !bytes.Equal(b, []byte{9, 9, 9}) {
		t.Fatalf("read back %v, %v", b, err)
	}
}

func TestReadWriteRoundTripQuick(t *testing.T) {
	m := New()
	m.Map("d", 0x10000, 0x10000, PermRW)
	f := func(off uint16, v uint32) bool {
		addr := 0x10000 + uint32(off)
		if addr+4 > 0x20000 {
			addr = 0x20000 - 4
		}
		if err := m.WriteWord(addr, v); err != nil {
			return false
		}
		got, err := m.ReadWord(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMapRangeEdges: a zero size maps no page, and a range that runs past
// the top of the address space maps up to its last page without wrapping.
func TestMapRangeEdges(t *testing.T) {
	m := New()
	m.Map("empty", 0x1001, 0, PermRW)
	if _, err := m.ReadWord(0x1000); err == nil {
		t.Fatal("a zero-size Map at 0x1001 mapped page 1")
	}
	m.Map("nothing", 0, 0, PermRW)
	if len(m.pages) != 0 {
		t.Fatalf("zero-size Maps mapped %d pages", len(m.pages))
	}
	if _, ok := m.Region("nothing"); !ok {
		t.Fatal("a zero-size Map dropped its region")
	}

	m.Map("top", 0xFFFFF000, 0x2000, PermRW)
	if err := m.WriteWord(0xFFFFFFFC, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadWord(0xFFFFF000); err != nil || v != 0 {
		t.Fatalf("ReadWord(0xFFFFF000) = %#x, %v", v, err)
	}
	if v, err := m.ReadWord(0xFFFFFFFC); err != nil || v != 0xC0FFEE {
		t.Fatalf("ReadWord(0xFFFFFFFC) = %#x, %v", v, err)
	}
	if _, err := m.ReadWord(0); err == nil {
		t.Fatal("a Map past the top wrapped around to page 0")
	}
	if len(m.pages) != 1 {
		t.Fatalf("Map past the top mapped %d pages, want 1", len(m.pages))
	}
}
