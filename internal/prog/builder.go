package prog

import (
	"math/rand"

	"fmt"

	"hipstr/internal/isa"
)

// ModuleBuilder incrementally constructs a Module.
type ModuleBuilder struct {
	m *Module
}

// NewModule starts a module named name.
func NewModule(name string) *ModuleBuilder {
	return &ModuleBuilder{m: &Module{Name: name, FuncIdx: make(map[string]int)}}
}

// Global declares a data object and returns its index.
func (mb *ModuleBuilder) Global(name string, size uint32, init []byte) int {
	mb.m.Globals = append(mb.m.Globals, Global{Name: name, Size: size, Init: init})
	return len(mb.m.Globals) - 1
}

// Func opens a function with nparams parameters and returns its builder.
func (mb *ModuleBuilder) Func(name string, nparams int) *FuncBuilder {
	f := &Func{Name: name, NParams: nparams, NVRegs: nparams, FixedSlots: make(map[int]bool)}
	mb.m.FuncIdx[name] = len(mb.m.Funcs)
	mb.m.Funcs = append(mb.m.Funcs, f)
	fb := &FuncBuilder{f: f}
	fb.NewBlock() // entry
	return fb
}

// Build validates and returns the module.
func (mb *ModuleBuilder) Build() (*Module, error) {
	if err := mb.m.Validate(); err != nil {
		return nil, err
	}
	return mb.m, nil
}

// MustBuild is Build for tests and generators with known-good IR.
func (mb *ModuleBuilder) MustBuild() *Module {
	m, err := mb.Build()
	if err != nil {
		panic(fmt.Sprintf("prog: MustBuild: %v", err))
	}
	return m
}

// Shuffle returns a semantically identical copy of m with its functions in
// a different order, so every function lands at a different text address —
// the layout-diversification primitive behind Isomeron-style program
// variants.
func Shuffle(m *Module, seed int64) *Module {
	n := &Module{Name: m.Name, FuncIdx: make(map[string]int), Globals: m.Globals}
	order := rand.New(rand.NewSource(seed)).Perm(len(m.Funcs))
	n.Funcs = make([]*Func, len(m.Funcs))
	for i, oi := range order {
		n.Funcs[i] = m.Funcs[oi]
		n.FuncIdx[m.Funcs[oi].Name] = i
	}
	return n
}

// FuncBuilder appends instructions to a function under construction.
type FuncBuilder struct {
	f   *Func
	cur *Block
}

// Param returns the vreg holding parameter i.
func (fb *FuncBuilder) Param(i int) VReg {
	if i >= fb.f.NParams {
		panic(fmt.Sprintf("prog: param %d of %d", i, fb.f.NParams))
	}
	return VReg(i)
}

// NewVReg allocates a fresh virtual register.
func (fb *FuncBuilder) NewVReg() VReg {
	v := VReg(fb.f.NVRegs)
	fb.f.NVRegs++
	return v
}

// NewSlot allocates a fresh local stack slot and returns its index.
func (fb *FuncBuilder) NewSlot() int {
	s := fb.f.NSlots
	fb.f.NSlots++
	return s
}

// NewBlock opens a new basic block and makes it current.
func (fb *FuncBuilder) NewBlock() int {
	b := &Block{ID: len(fb.f.Blocks)}
	fb.f.Blocks = append(fb.f.Blocks, b)
	fb.cur = b
	return b.ID
}

// SetBlock switches the current block.
func (fb *FuncBuilder) SetBlock(id int) { fb.cur = fb.f.Blocks[id] }

// CurBlock returns the current block id.
func (fb *FuncBuilder) CurBlock() int { return fb.cur.ID }

func (fb *FuncBuilder) emit(in Instr) {
	fb.cur.Ins = append(fb.cur.Ins, in)
}

// ConstTo emits dst = imm into an existing vreg (loop-carried updates).
func (fb *FuncBuilder) ConstTo(dst VReg, imm int32) {
	fb.emit(Instr{Kind: OpConst, Dst: dst, Imm: imm, A: NoVReg, B: NoVReg})
}

// BinTo emits dst = a op b into an existing vreg.
func (fb *FuncBuilder) BinTo(dst VReg, op BinOp, a, b VReg) {
	fb.emit(Instr{Kind: OpBin, Bin: op, Dst: dst, A: a, B: b})
}

// BinImmTo emits dst = a op imm into an existing vreg.
func (fb *FuncBuilder) BinImmTo(dst VReg, op BinOp, a VReg, imm int32) {
	fb.emit(Instr{Kind: OpBinImm, Bin: op, Dst: dst, A: a, Imm: imm, B: NoVReg})
}

// LoadTo emits dst = mem[a + off] into an existing vreg.
func (fb *FuncBuilder) LoadTo(dst, a VReg, off int32) {
	fb.emit(Instr{Kind: OpLoad, Dst: dst, A: a, Imm: off, B: NoVReg})
}

// Const emits Dst = imm.
func (fb *FuncBuilder) Const(imm int32) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpConst, Dst: d, Imm: imm, A: NoVReg, B: NoVReg})
	return d
}

// Copy emits Dst = a.
func (fb *FuncBuilder) Copy(a VReg) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpCopy, Dst: d, A: a, B: NoVReg})
	return d
}

// Bin emits Dst = a op b.
func (fb *FuncBuilder) Bin(op BinOp, a, b VReg) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpBin, Bin: op, Dst: d, A: a, B: b})
	return d
}

// BinImm emits Dst = a op imm.
func (fb *FuncBuilder) BinImm(op BinOp, a VReg, imm int32) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpBinImm, Bin: op, Dst: d, A: a, Imm: imm, B: NoVReg})
	return d
}

// LoadSlot emits Dst = slots[slot].
func (fb *FuncBuilder) LoadSlot(slot int) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpLoadSlot, Dst: d, Slot: slot, A: NoVReg, B: NoVReg})
	return d
}

// StoreSlot emits slots[slot] = a.
func (fb *FuncBuilder) StoreSlot(slot int, a VReg) {
	fb.emit(Instr{Kind: OpStoreSlot, Slot: slot, A: a, B: NoVReg, Dst: NoVReg})
}

// SlotAddr emits Dst = &slots[slot], pinning the slot.
func (fb *FuncBuilder) SlotAddr(slot int) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpSlotAddr, Dst: d, Slot: slot, A: NoVReg, B: NoVReg})
	return d
}

// GlobalAddr emits Dst = &globals[g] + off.
func (fb *FuncBuilder) GlobalAddr(g int, off int32) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpGlobalAddr, Dst: d, Global: g, Imm: off, A: NoVReg, B: NoVReg})
	return d
}

// Load emits Dst = mem[a + off].
func (fb *FuncBuilder) Load(a VReg, off int32) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpLoad, Dst: d, A: a, Imm: off, B: NoVReg})
	return d
}

// Store emits mem[a + off] = b.
func (fb *FuncBuilder) Store(a VReg, off int32, b VReg) {
	fb.emit(Instr{Kind: OpStore, A: a, B: b, Imm: off, Dst: NoVReg})
}

// Call emits a direct call; pass wantRet=false for void calls.
func (fb *FuncBuilder) Call(fn string, wantRet bool, args ...VReg) VReg {
	d := NoVReg
	if wantRet {
		d = fb.NewVReg()
	}
	fb.emit(Instr{Kind: OpCall, Fn: fn, Args: args, Dst: d, A: NoVReg, B: NoVReg})
	return d
}

// CallInd emits an indirect call through fnptr.
func (fb *FuncBuilder) CallInd(fnptr VReg, wantRet bool, args ...VReg) VReg {
	d := NoVReg
	if wantRet {
		d = fb.NewVReg()
	}
	fb.emit(Instr{Kind: OpCallInd, A: fnptr, Args: args, Dst: d, B: NoVReg})
	return d
}

// FuncAddr emits Dst = &fn.
func (fb *FuncBuilder) FuncAddr(fn string) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpFuncAddr, Dst: d, Fn: fn, A: NoVReg, B: NoVReg})
	return d
}

// Syscall emits Dst = syscall(num; args...).
func (fb *FuncBuilder) Syscall(num int32, args ...VReg) VReg {
	d := fb.NewVReg()
	fb.emit(Instr{Kind: OpSyscall, Imm: num, Args: args, Dst: d, A: NoVReg, B: NoVReg})
	return d
}

// Ret emits a return of a (pass NoVReg for void).
func (fb *FuncBuilder) Ret(a VReg) {
	fb.emit(Instr{Kind: OpRet, A: a, B: NoVReg, Dst: NoVReg})
}

// Jmp emits an unconditional jump.
func (fb *FuncBuilder) Jmp(blk int) {
	fb.emit(Instr{Kind: OpJmp, Blk: blk, A: NoVReg, B: NoVReg, Dst: NoVReg})
}

// Br emits if a cond b goto t else f.
func (fb *FuncBuilder) Br(cond isa.Cond, a, b VReg, t, f int) {
	fb.emit(Instr{Kind: OpBr, Cond: cond, A: a, B: b, Blk: t, Blk2: f, Dst: NoVReg})
}

// BrImm emits if a cond imm goto t else f.
func (fb *FuncBuilder) BrImm(cond isa.Cond, a VReg, imm int32, t, f int) {
	fb.emit(Instr{Kind: OpBrImm, Cond: cond, A: a, Imm: imm, Blk: t, Blk2: f, B: NoVReg, Dst: NoVReg})
}
