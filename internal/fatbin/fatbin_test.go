package fatbin

import (
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
)

func sampleMeta() *FuncMeta {
	return &FuncMeta{
		Name:      "f",
		NumArgs:   2,
		NVRegs:    6,
		NSlots:    3,
		FrameSize: 0x80,
		OutArgOff: 0,
		LocalOff:  0x10,
		SpillOff:  0x1C,
		SaveOff:   0x2C,
		FixedSlot: []bool{false, true, false},
		Entry:     [2]uint32{X86TextBase, ARMTextBase},
		Start:     [2]uint32{X86TextBase, ARMTextBase},
		End:       [2]uint32{X86TextBase + 0x100, ARMTextBase + 0x100},
	}
}

func TestFrameOffsets(t *testing.T) {
	f := sampleMeta()
	if f.RetAddrOff() != 0x80 {
		t.Fatalf("ret addr at %#x", f.RetAddrOff())
	}
	if f.ArgOff(0) != 0x84 || f.ArgOff(1) != 0x88 {
		t.Fatalf("arg offsets %#x %#x", f.ArgOff(0), f.ArgOff(1))
	}
	// Parameters live in their incoming slots.
	if f.HomeOff(0) != f.ArgOff(0) || f.HomeOff(1) != f.ArgOff(1) {
		t.Fatal("param homes not aliased to arg slots")
	}
	if f.HomeOff(2) != f.SpillOff {
		t.Fatalf("first non-param home at %#x, want %#x", f.HomeOff(2), f.SpillOff)
	}
	if f.SlotOff(1) != f.LocalOff+4 {
		t.Fatalf("slot offset %#x", f.SlotOff(1))
	}
}

func TestRelocatableOffsetsExcludeFixed(t *testing.T) {
	f := sampleMeta()
	off := f.RelocatableOffsets()
	want := map[uint32]bool{}
	for _, o := range off {
		if want[o] {
			t.Fatalf("duplicate relocatable offset %#x", o)
		}
		want[o] = true
	}
	if want[f.SlotOff(1)] {
		t.Fatal("fixed slot listed as relocatable")
	}
	if !want[f.SlotOff(0)] || !want[f.SlotOff(2)] {
		t.Fatal("free slots missing")
	}
	if !want[f.RetAddrOff()] {
		t.Fatal("return-address slot missing")
	}
	for w := uint32(0); w < SaveAreaWords; w++ {
		if !want[f.SaveOff+4*w] {
			t.Fatalf("save word %d missing", w)
		}
	}
	// Non-param homes included, param homes (caller's area) excluded.
	if !want[f.HomeOff(3)] {
		t.Fatal("vreg home missing")
	}
	if want[f.ArgOff(0)] {
		t.Fatal("incoming arg slot should not be self-relocated")
	}
}

func TestCallSiteByRet(t *testing.T) {
	f := sampleMeta()
	f.CallSites = []CallSite{{RetAddr: [2]uint32{0x100, 0x200}}}
	if cs, ok := f.CallSiteByRet(isa.X86, 0x100); !ok || cs.RetAddr[isa.ARM] != 0x200 {
		t.Fatal("lookup failed")
	}
	if _, ok := f.CallSiteByRet(isa.ARM, 0x100); ok {
		t.Fatal("wrong-ISA lookup matched")
	}
}

func TestLoadMapsRegions(t *testing.T) {
	b := &Binary{
		Module:     "t",
		Text:       [2][]byte{{0x90}, {0, 0, 0, 0}},
		Data:       []byte{1, 2, 3, 4},
		FuncByName: map[string]int{},
	}
	ram := mem.New()
	b.Load(ram, 0x10000, 0x1000)
	for _, name := range []string{"text.x86", "text.arm", "data", "heap", "stack"} {
		if _, ok := ram.Region(name); !ok {
			t.Fatalf("region %q not mapped", name)
		}
	}
	v, err := ram.ReadWord(DataBase)
	if err != nil || v != 0x04030201 {
		t.Fatalf("data readback %#x, %v", v, err)
	}
	if _, err := ram.FetchInto(X86TextBase, make([]byte, 1)); err != nil {
		t.Fatalf("text not executable: %v", err)
	}
	if err := ram.WriteWord(X86TextBase, 1); err == nil {
		t.Fatal("text writable")
	}
}

func TestTextRangeAndCacheBases(t *testing.T) {
	b := &Binary{Text: [2][]byte{make([]byte, 100), make([]byte, 200)}}
	lo, hi := b.TextRange(isa.X86)
	if lo != X86TextBase || hi != X86TextBase+100 {
		t.Fatal("x86 range wrong")
	}
	lo, hi = b.TextRange(isa.ARM)
	if lo != ARMTextBase || hi != ARMTextBase+200 {
		t.Fatal("arm range wrong")
	}
	if CacheBase(isa.X86) == CacheBase(isa.ARM) {
		t.Fatal("cache regions must be disjoint")
	}
	if TextBase(isa.X86) == TextBase(isa.ARM) {
		t.Fatal("text regions must be disjoint")
	}
}
