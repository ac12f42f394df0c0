package prog

import (
	"testing"

	"hipstr/internal/isa"
)

// buildSum constructs: func sum(n) { s := 0; for i := 0; i < n; i++ { s += i }; return s }
func buildSum(t *testing.T) *Module {
	t.Helper()
	mb := NewModule("test")
	fb := mb.Func("sum", 1)
	n := fb.Param(0)
	sSlot := fb.NewSlot()
	iSlot := fb.NewSlot()
	zero := fb.Const(0)
	fb.StoreSlot(sSlot, zero)
	fb.StoreSlot(iSlot, zero)
	loop := fb.NewBlock()
	fb.SetBlock(0)
	fb.Jmp(loop)
	fb.SetBlock(loop)
	i := fb.LoadSlot(iSlot)
	body := fb.NewBlock()
	exit := fb.NewBlock()
	fb.SetBlock(loop)
	fb.Br(isa.CondLT, i, n, body, exit)
	fb.SetBlock(body)
	s := fb.LoadSlot(sSlot)
	i2 := fb.LoadSlot(iSlot)
	s2 := fb.Bin(BinAdd, s, i2)
	fb.StoreSlot(sSlot, s2)
	i3 := fb.BinImm(BinAdd, i2, 1)
	fb.StoreSlot(iSlot, i3)
	fb.Jmp(loop)
	fb.SetBlock(exit)
	r := fb.LoadSlot(sSlot)
	fb.Ret(r)
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestBuilderProducesValidModule(t *testing.T) {
	m := buildSum(t)
	f := m.Func("sum")
	if f == nil {
		t.Fatal("function lookup failed")
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	if f.NSlots != 2 {
		t.Fatalf("slots = %d", f.NSlots)
	}
}

func TestValidateCatchesMissingTerminator(t *testing.T) {
	mb := NewModule("bad")
	fb := mb.Func("f", 0)
	fb.Const(1) // no terminator
	if _, err := mb.Build(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestValidateCatchesBadCall(t *testing.T) {
	mb := NewModule("bad")
	fb := mb.Func("f", 0)
	fb.Call("nonexistent", false)
	fb.Ret(NoVReg)
	if _, err := mb.Build(); err == nil {
		t.Fatal("expected validation error for unknown callee")
	}
}

func TestValidateCatchesBadBlockRef(t *testing.T) {
	mb := NewModule("bad")
	fb := mb.Func("f", 0)
	fb.Jmp(42)
	if _, err := mb.Build(); err == nil {
		t.Fatal("expected validation error for bad block")
	}
}

func TestSlotAddrPinsSlot(t *testing.T) {
	mb := NewModule("pin")
	fb := mb.Func("f", 0)
	s0 := fb.NewSlot()
	s1 := fb.NewSlot()
	_ = fb.SlotAddr(s1)
	fb.Ret(NoVReg)
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	if f.FixedSlots[s0] {
		t.Error("slot 0 should be relocatable")
	}
	if !f.FixedSlots[s1] {
		t.Error("address-taken slot 1 should be fixed")
	}
}

func TestSuccsAndPreds(t *testing.T) {
	m := buildSum(t)
	f := m.Func("sum")
	// Block 0 -> loop(1); loop -> body(2), exit(3); body -> loop.
	if s := f.Blocks[0].Succs(); len(s) != 1 || s[0] != 1 {
		t.Fatalf("entry succs %v", s)
	}
	if s := f.Blocks[1].Succs(); len(s) != 2 {
		t.Fatalf("loop succs %v", s)
	}
	preds := Preds(f)
	if len(preds[1]) != 2 {
		t.Fatalf("loop preds %v", preds[1])
	}
	if len(preds[0]) != 0 {
		t.Fatalf("entry preds %v", preds[0])
	}
}

func TestLivenessLoopCarried(t *testing.T) {
	m := buildSum(t)
	f := m.Func("sum")
	lv := ComputeLiveness(f)
	// The parameter n (v0) is live into the loop header (block 1) because
	// the branch compares against it every iteration.
	if !lv.In[1].Has(f.Blocks[1].Ins[1].A) && !lv.In[1].Has(VReg(0)) {
		t.Fatal("param not live into loop header")
	}
	if !lv.Out[2].Has(VReg(0)) {
		t.Fatal("param should be live out of loop body")
	}
	// Nothing is live out of the exit block.
	if got := lv.Out[3].Count(); got != 0 {
		t.Fatalf("exit live-out count %d", got)
	}
}

func TestVRegSetOps(t *testing.T) {
	s := NewVRegSet(130)
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Fatal("membership wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("count %d", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("remove failed")
	}
	mem := s.Members()
	if len(mem) != 2 || mem[0] != 0 || mem[1] != 129 {
		t.Fatalf("members %v", mem)
	}
	o := NewVRegSet(130)
	o.Add(5)
	if !o.Union(s) {
		t.Fatal("union should change")
	}
	if o.Union(s) {
		t.Fatal("second union should not change")
	}
	if o.Count() != 3 {
		t.Fatalf("union count %d", o.Count())
	}
}

func TestReversePostorder(t *testing.T) {
	m := buildSum(t)
	f := m.Func("sum")
	rpo := ReversePostorder(f)
	if len(rpo) != len(f.Blocks) {
		t.Fatalf("rpo len %d", len(rpo))
	}
	if rpo[0] != 0 {
		t.Fatalf("rpo starts at %d", rpo[0])
	}
	pos := make(map[int]int)
	for i, id := range rpo {
		pos[id] = i
	}
	// Entry precedes the loop header, which precedes its body.
	if !(pos[0] < pos[1]) {
		t.Fatal("entry not before loop")
	}
}
