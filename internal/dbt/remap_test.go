package dbt

import (
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/isa"
	"hipstr/internal/psr"
	"hipstr/internal/testprogs"
)

// buildMapFor compiles a program and builds a relocation map for fn.
func buildMapFor(t *testing.T, fnName string) *psr.Map {
	t.Helper()
	bin, err := compiler.Compile(testprogs.Fib(5))
	if err != nil {
		t.Fatal(err)
	}
	fn := bin.Func(fnName)
	if fn == nil {
		t.Fatalf("no function %s", fnName)
	}
	return psr.NewRandomizer(3, psr.DefaultConfig()).Build(fn, isa.X86)
}

func TestRemapFrameOffRelocatables(t *testing.T) {
	m := buildMapFor(t, "fib")
	fn := m.Fn
	// Every relocatable canonical offset maps through OffTo.
	for _, off := range fn.RelocatableOffsets() {
		got := remapFrameOff(m, int32(off), nil, false)
		if got == int32(off) && m.OffTo[int32(off)] != int32(off) {
			t.Fatalf("offset %#x not remapped", off)
		}
		if got != m.OffTo[int32(off)] {
			t.Fatalf("offset %#x: remap %#x != map %#x", off, got, m.OffTo[int32(off)])
		}
	}
}

func TestRemapFrameOffReturnAddress(t *testing.T) {
	m := buildMapFor(t, "fib")
	got := remapFrameOff(m, int32(m.Fn.RetAddrOff()), nil, false)
	if got != m.RetOff {
		t.Fatalf("ret slot remapped to %#x, want %#x", got, m.RetOff)
	}
}

func TestRemapFrameOffIncomingArgs(t *testing.T) {
	m := buildMapFor(t, "fib")
	fn := m.Fn
	for i := 0; i < fn.NumArgs; i++ {
		got := remapFrameOff(m, int32(fn.ArgOff(i)), nil, false)
		want := int32(m.NewFrameSize) + m.ArgOff[i]
		if got != want {
			t.Fatalf("arg %d: remap %#x, want %#x", i, got, want)
		}
	}
}

func TestRemapFrameOffOutgoingArgs(t *testing.T) {
	caller := buildMapFor(t, "main")
	callee := buildMapFor(t, "fib")
	// A store to the canonical out-arg slot 0 with a pending direct call
	// lands at the callee's randomized convention offset.
	got := remapFrameOff(caller, 0, callee, false)
	if got != callee.ArgOff[0] {
		t.Fatalf("out-arg 0 remapped to %#x, want %#x", got, callee.ArgOff[0])
	}
	// With an indirect pending call, it stages instead.
	got = remapFrameOff(caller, 0, nil, true)
	if got != caller.StageOff {
		t.Fatalf("staged out-arg at %#x, want %#x", got, caller.StageOff)
	}
}

func TestRemapFrameOffDeepCallerAccess(t *testing.T) {
	m := buildMapFor(t, "fib")
	fs := int32(m.Fn.FrameSize)
	// An access beyond the incoming args (deep into the caller's frame)
	// shifts by the frame growth.
	deep := fs + 4 + 4*int32(m.Fn.NumArgs) + 40
	got := remapFrameOff(m, deep, nil, false)
	want := deep + int32(m.NewFrameSize) - fs - 4
	if got != want {
		t.Fatalf("deep offset %#x -> %#x, want %#x", deep, got, want)
	}
}

func TestRemapFrameOffUnknownStaysRaw(t *testing.T) {
	m := buildMapFor(t, "fib")
	// A non-canonical mid-frame offset (a gadget access) is left alone —
	// the data it hoped for lives elsewhere.
	odd := int32(m.Fn.LocalOff) + 2 // unaligned, not canonical
	if got := remapFrameOff(m, odd, nil, false); got != odd {
		t.Fatalf("gadget offset %#x rewritten to %#x", odd, got)
	}
}

func TestSrcRangesMergesAdjacent(t *testing.T) {
	tr := &translator{
		insts: []isa.Inst{
			{Addr: 100, Size: 2},
			{Addr: 102, Size: 3},
			{Addr: 105, Size: 1},
			{Addr: 200, Size: 4}, // gap (inlined jump)
			{Addr: 204, Size: 2},
		},
	}
	rs := tr.srcRanges(nil)
	if len(rs) != 2 {
		t.Fatalf("ranges %v", rs)
	}
	if rs[0] != [2]uint32{100, 106} || rs[1] != [2]uint32{200, 206} {
		t.Fatalf("ranges %v", rs)
	}
}

func TestCoveredQueries(t *testing.T) {
	c := NewCodeCache(isa.X86, 1<<20)
	c.AddCovered([][2]uint32{{100, 106}, {200, 206}})
	cases := []struct {
		addr uint32
		want bool
	}{
		{100, true}, {105, true}, {106, false}, {99, false},
		{200, true}, {205, true}, {206, false},
	}
	for _, tc := range cases {
		if got := c.Covered(tc.addr); got != tc.want {
			t.Fatalf("Covered(%d) = %v", tc.addr, got)
		}
	}
	c.Flush()
	if c.Covered(100) {
		t.Fatal("coverage survived flush")
	}
}
