package gadget

import (
	"bytes"
	"reflect"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/workload"
)

// prepareWordByWord is prepare with the attacker frame written one
// WriteWord per slot: the reference the one-Write image reset must match.
func (a *Analyzer) prepareWordByWord(k isa.Kind) uint32 {
	a.m.State = machine.State{ISA: k}
	for r := 0; r < 16; r++ {
		a.m.Regs[r] = sentinelBase + uint32(r)<<8
	}
	sp := a.stackTop - 4*PatternSlots
	for i := 0; i < PatternSlots; i++ {
		a.mem.WriteWord(sp+uint32(4*i), patternBase+uint32(i))
	}
	a.m.SetSP(sp)
	return sp
}

// TestCensusMatchesWordByWordReset takes the census of the nine compiled
// benchmarks on both ISAs and re-runs every gadget on a second Analyzer
// whose frame is reset one word at a time: every Effect must agree.
func TestCensusMatchesWordByWordReset(t *testing.T) {
	if testing.Short() {
		t.Skip("executes every gadget of nine binaries twice")
	}
	n := 0
	for _, p := range append(workload.Profiles(), workload.HTTPD()) {
		bin, err := workload.Compile(p)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		for _, k := range isa.Kinds {
			c := TakeCensus(bin, k)
			ref := NewAnalyzer(bin)
			for i := range c.Gadgets {
				g := &c.Gadgets[i]
				if e := ref.run(g, ref.prepareWordByWord(g.ISA)); !reflect.DeepEqual(e, c.Effects[i]) {
					t.Fatalf("%s %s: census effect %+v, word-by-word reset %+v", p.Name, g.String(), c.Effects[i], e)
				}
			}
			n += len(c.Gadgets)
		}
	}
	t.Logf("%d gadgets", n)
}

// TestPatternImage checks the image against the words it stands for, and
// that writing it over a dirtied frame leaves the bytes word-by-word
// writes leave.
func TestPatternImage(t *testing.T) {
	const base, size = 0x10000, 0x4000
	img, words := mem.New(), mem.New()
	img.Map("frame", base, size, mem.PermRW)
	words.Map("frame", base, size, mem.PermRW)
	for a := uint32(base); a < base+size; a += 4 {
		img.WriteWord(a, 0xDEADBEEF^a)
		words.WriteWord(a, 0xDEADBEEF^a)
	}
	sp := uint32(base + 0x80)
	if err := img.Write(sp, patternImage[:]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < PatternSlots; i++ {
		words.WriteWord(sp+uint32(4*i), patternBase+uint32(i))
	}
	got, want := make([]byte, size), make([]byte, size)
	if err := img.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if err := words.Read(base, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("image write differs from word-by-word writes")
	}
	for i := 0; i < PatternSlots; i++ {
		if v, _ := img.ReadWord(sp + uint32(4*i)); PatternSlot(v) != i {
			t.Fatalf("slot %d reads %#x", i, v)
		}
	}
}
