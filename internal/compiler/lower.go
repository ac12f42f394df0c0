package compiler

import (
	"fmt"
	"math/rand"
	"sort"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/prog"
)

// scratchRegs is each ISA's pool for the block-local register cache.
var scratchRegs = [2][]isa.Reg{
	isa.X86: {isa.EAX, isa.ECX, isa.EDX},
	isa.ARM: {isa.R0, isa.R1, isa.R2, isa.R3},
}

// armScratch is reserved exclusively for the emitter's address/constant
// legalization sequences.
const armScratch = isa.R12

// scratchCache is the block-local, write-through register cache: canonical
// memory homes are always current for vregs it tracks, so invalidation
// never needs a writeback.
type scratchCache struct {
	pool []isa.Reg
	of   map[prog.VReg]isa.Reg
	occ  map[isa.Reg]prog.VReg
	lru  []isa.Reg // least recently used first
}

func newScratchCache(pool []isa.Reg) *scratchCache {
	return &scratchCache{
		pool: pool,
		of:   make(map[prog.VReg]isa.Reg),
		occ:  make(map[isa.Reg]prog.VReg),
	}
}

func (c *scratchCache) touch(r isa.Reg) {
	for i, x := range c.lru {
		if x == r {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			break
		}
	}
	c.lru = append(c.lru, r)
}

func (c *scratchCache) lookup(v prog.VReg) (isa.Reg, bool) {
	r, ok := c.of[v]
	if ok {
		c.touch(r)
	}
	return r, ok
}

// take returns a scratch register not in pinned, evicting the LRU occupant
// if necessary. The association tables are cleared for the returned
// register; callers bind it via assign when it will cache a vreg.
func (c *scratchCache) take(pinned map[isa.Reg]bool) isa.Reg {
	for _, r := range c.pool {
		if _, busy := c.occ[r]; !busy && !pinned[r] {
			c.touch(r)
			return r
		}
	}
	for _, r := range c.lru {
		if !pinned[r] {
			c.evictReg(r)
			c.touch(r)
			return r
		}
	}
	// All pool registers pinned and occupied: pick any unpinned pool reg.
	for _, r := range c.pool {
		if !pinned[r] {
			c.evictReg(r)
			c.touch(r)
			return r
		}
	}
	panic("compiler: scratch pool exhausted")
}

func (c *scratchCache) assign(v prog.VReg, r isa.Reg) {
	c.evictReg(r)
	if old, ok := c.of[v]; ok {
		delete(c.occ, old)
		delete(c.of, v)
	}
	c.of[v] = r
	c.occ[r] = v
}

func (c *scratchCache) evictReg(r isa.Reg) {
	if v, ok := c.occ[r]; ok {
		delete(c.of, v)
		delete(c.occ, r)
	}
}

func (c *scratchCache) invalidateAll() {
	c.of = make(map[prog.VReg]isa.Reg)
	c.occ = make(map[isa.Reg]prog.VReg)
	c.lru = c.lru[:0]
}

// lowerer lowers one function to one ISA.
type lowerer struct {
	k       isa.Kind
	mod     *prog.Module
	f       *prog.Func
	meta    *fatbin.FuncMeta
	a       *isa.Asm
	loops   []*loopInfo
	loopOf  []*loopInfo
	entries map[string]uint32 // callee entries for this ISA (zero on sizing pass)
	gaddr   func(gi int) uint32

	bind   map[prog.VReg]isa.Reg
	cache  *scratchCache
	pins   map[isa.Reg]bool
	stubN  int
	callN  int
	sp     isa.Reg
	retReg isa.Reg

	// Layout diversification (Isomeron-style variants): block emission
	// order and nop padding, deterministic per layout seed.
	blockOrder []int
	nopRng     *rand.Rand
}

// diversify installs a shuffled block order and nop padding derived from
// seed (0 leaves the canonical layout).
func (lo *lowerer) diversify(seed int64) {
	if seed == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed ^ int64(lo.meta.Index)<<20))
	order := make([]int, len(lo.f.Blocks))
	for i := range order {
		order[i] = i
	}
	// Entry block stays first (the function entry address).
	tail := order[1:]
	rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	lo.blockOrder = order
	lo.nopRng = rng
}

// callSiteLabel names the return point of the n-th call in the function;
// both ISA lowerings emit calls in identical order, so the labels pair up
// into the symbol table's cross-ISA call-site map.
func callSiteLabel(n int) string { return fmt.Sprintf("cs%d", n) }

// newLowerer returns a lowerer emitting f at base through a, which it
// Resets: the code and labels a previous lowering returned are invalid.
func newLowerer(a *isa.Asm, k isa.Kind, mod *prog.Module, f *prog.Func, meta *fatbin.FuncMeta,
	base uint32, loops []*loopInfo, loopOf []*loopInfo,
	entries map[string]uint32, gaddr func(int) uint32) *lowerer {
	a.Reset(k, base)
	return &lowerer{
		k: k, mod: mod, f: f, meta: meta,
		a:     a,
		loops: loops, loopOf: loopOf,
		entries: entries, gaddr: gaddr,
		cache:  newScratchCache(scratchRegs[k]),
		pins:   make(map[isa.Reg]bool),
		sp:     isa.StackReg(k),
		retReg: isa.RetReg(k),
	}
}

func (lo *lowerer) pin(r isa.Reg)   { lo.pins[r] = true }
func (lo *lowerer) unpin(r isa.Reg) { delete(lo.pins, r) }
func (lo *lowerer) unpinAll()       { lo.pins = make(map[isa.Reg]bool) }
func (lo *lowerer) temp() isa.Reg   { r := lo.cache.take(lo.pins); lo.pin(r); return r }
func (lo *lowerer) home(v prog.VReg) int32 {
	return int32(lo.meta.HomeOff(int32(v)))
}

// getVal brings vreg v into a register and pins it.
func (lo *lowerer) getVal(v prog.VReg) isa.Reg {
	if r, ok := lo.bind[v]; ok {
		lo.pin(r)
		return r
	}
	if r, ok := lo.cache.lookup(v); ok {
		lo.pin(r)
		return r
	}
	r := lo.cache.take(lo.pins)
	lo.a.LoadWord(r, lo.sp, lo.home(v), armScratch)
	lo.cache.assign(v, r)
	lo.pin(r)
	return r
}

// getOpd returns an operand for v usable as an x86 ALU source: a register
// when resident, otherwise the memory home (exploiting x86 memory
// operands). On ARM it always loads into a register.
func (lo *lowerer) getOpd(v prog.VReg) isa.Operand {
	if r, ok := lo.bind[v]; ok {
		lo.pin(r)
		return isa.R(r)
	}
	if r, ok := lo.cache.lookup(v); ok {
		lo.pin(r)
		return isa.R(r)
	}
	if lo.k == isa.X86 {
		return isa.MB(lo.sp, lo.home(v))
	}
	return isa.R(lo.getVal(v))
}

// finishDef routes the value in r to vreg d: into d's loop register when
// bound (registers are the home inside loops), otherwise written through
// to the canonical frame home and cached.
func (lo *lowerer) finishDef(d prog.VReg, r isa.Reg) {
	if d == prog.NoVReg {
		return
	}
	if br, ok := lo.bind[d]; ok {
		if br != r {
			lo.emitMovReg(br, r)
		}
		// A stale cache entry for d would alias the binding; drop it.
		if cr, ok := lo.cache.lookup(d); ok {
			lo.cache.evictReg(cr)
		}
		return
	}
	lo.a.StoreWord(r, lo.sp, lo.home(d), armScratch)
	if lo.isScratch(r) {
		lo.cache.assign(d, r)
	}
}

func (lo *lowerer) isScratch(r isa.Reg) bool {
	for _, s := range scratchRegs[lo.k] {
		if s == r {
			return true
		}
	}
	return false
}

func (lo *lowerer) emitMovReg(dst, src isa.Reg) {
	if dst == src {
		return
	}
	lo.a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(dst), Src: isa.R(src)})
}

// edgeAction is a load or store fixing loop bindings across a CFG edge.
type edgeAction struct {
	load bool
	v    prog.VReg
	r    isa.Reg
}

// edgeActions computes binding fixups for the edge u -> t: values bound in
// u's loop but not identically in t's are stored back to their homes;
// values bound in t's loop but not identically in u's are loaded.
func (lo *lowerer) edgeActions(u, t int) []edgeAction {
	var bu, bt map[prog.VReg]isa.Reg
	if l := lo.loopOf[u]; l != nil {
		bu = l.bind[lo.k]
	}
	if l := lo.loopOf[t]; l != nil {
		bt = l.bind[lo.k]
	}
	if len(bu) == 0 && len(bt) == 0 {
		return nil
	}
	var acts []edgeAction
	for v, r := range bu {
		if bt[v] != r {
			acts = append(acts, edgeAction{load: false, v: v, r: r})
		}
	}
	for v, r := range bt {
		if bu[v] != r {
			acts = append(acts, edgeAction{load: true, v: v, r: r})
		}
	}
	sort.Slice(acts, func(i, j int) bool {
		if acts[i].load != acts[j].load {
			return !acts[i].load // stores first
		}
		return acts[i].v < acts[j].v
	})
	return acts
}

func (lo *lowerer) emitEdgeActions(acts []edgeAction) {
	for _, a := range acts {
		if a.load {
			lo.a.LoadWord(a.r, lo.sp, lo.home(a.v), armScratch)
		} else {
			lo.a.StoreWord(a.r, lo.sp, lo.home(a.v), armScratch)
		}
	}
}

func blockLabel(id int) string { return fmt.Sprintf("b%d", id) }

// lower emits the whole function and returns its code and label addresses.
func (lo *lowerer) lower() ([]byte, map[string]uint32, error) {
	lo.prologue()
	if lo.blockOrder != nil {
		for _, id := range lo.blockOrder {
			lo.lowerBlock(lo.f.Blocks[id])
		}
	} else {
		for _, b := range lo.f.Blocks {
			lo.lowerBlock(b)
		}
	}
	lo.epilogue()
	return lo.a.Assemble()
}

func (lo *lowerer) prologue() {
	fs := int32(lo.meta.FrameSize)
	if lo.k == isa.X86 {
		lo.a.Emit(isa.Inst{Op: isa.OpSub, Dst: isa.R(isa.ESP), Src: isa.I(fs)})
	} else {
		lo.a.Emit(isa.Inst{Op: isa.OpSub, Dst: isa.R(isa.SP), Src: isa.I(4), Src2: isa.R(isa.SP)})
		lo.a.Emit(isa.Inst{Op: isa.OpStore, Dst: isa.MB(isa.SP, 0), Src: isa.R(isa.LR)})
		lo.a.AddImm(isa.SP, isa.SP, -fs, armScratch)
	}
	for i, r := range lo.meta.SavedRegs[lo.k] {
		lo.a.StoreWord(r, lo.sp, int32(lo.meta.SaveOff)+int32(4*i), armScratch)
	}
}

func (lo *lowerer) epilogue() {
	lo.a.Label("epi")
	for i, r := range lo.meta.SavedRegs[lo.k] {
		lo.a.LoadWord(r, lo.sp, int32(lo.meta.SaveOff)+int32(4*i), armScratch)
	}
	fs := int32(lo.meta.FrameSize)
	if lo.k == isa.X86 {
		lo.a.Emit(isa.Inst{Op: isa.OpAdd, Dst: isa.R(isa.ESP), Src: isa.I(fs)})
		lo.a.Emit(isa.Inst{Op: isa.OpRet})
	} else {
		lo.a.AddImm(isa.SP, isa.SP, fs, armScratch)
		lo.a.Emit(isa.Inst{Op: isa.OpLoad, Dst: isa.R(isa.LR), Src: isa.MB(isa.SP, 0)})
		lo.a.Emit(isa.Inst{Op: isa.OpAdd, Dst: isa.R(isa.SP), Src: isa.I(4), Src2: isa.R(isa.SP)})
		lo.a.Emit(isa.Inst{Op: isa.OpBx, Dst: isa.R(isa.LR)})
	}
}

func (lo *lowerer) lowerBlock(b *prog.Block) {
	if lo.nopRng != nil {
		for n := lo.nopRng.Intn(3); n > 0; n-- {
			lo.a.Emit(isa.Inst{Op: isa.OpNop})
		}
	}
	lo.a.Label(blockLabel(b.ID))
	lo.cache.invalidateAll()
	lo.bind = nil
	if l := lo.loopOf[b.ID]; l != nil {
		lo.bind = l.bind[lo.k]
	}
	for i := range b.Ins {
		lo.lowerInstr(b, &b.Ins[i])
		lo.unpinAll()
	}
}

func (lo *lowerer) lowerInstr(b *prog.Block, in *prog.Instr) {
	switch in.Kind {
	case prog.OpConst:
		r := lo.temp()
		lo.a.Const32(r, uint32(in.Imm))
		lo.finishDef(in.Dst, r)
	case prog.OpCopy:
		r := lo.getVal(in.A)
		lo.finishDef(in.Dst, r)
	case prog.OpBin:
		lo.lowerBin(in)
	case prog.OpBinImm:
		lo.lowerBinImm(in)
	case prog.OpNeg:
		ra := lo.getVal(in.A)
		rt := lo.temp()
		if lo.k == isa.X86 {
			lo.emitMovReg(rt, ra)
			lo.a.Emit(isa.Inst{Op: isa.OpNeg, Dst: isa.R(rt)})
		} else {
			lo.a.Emit(isa.Inst{Op: isa.OpRsb, Dst: isa.R(rt), Src: isa.I(0), Src2: isa.R(ra)})
		}
		lo.finishDef(in.Dst, rt)
	case prog.OpNot:
		ra := lo.getVal(in.A)
		rt := lo.temp()
		if lo.k == isa.X86 {
			lo.emitMovReg(rt, ra)
			lo.a.Emit(isa.Inst{Op: isa.OpNot, Dst: isa.R(rt)})
		} else {
			lo.a.Emit(isa.Inst{Op: isa.OpNot, Dst: isa.R(rt), Src: isa.R(ra)})
		}
		lo.finishDef(in.Dst, rt)
	case prog.OpLoadSlot:
		rt := lo.temp()
		lo.a.LoadWord(rt, lo.sp, int32(lo.meta.SlotOff(in.Slot)), armScratch)
		lo.finishDef(in.Dst, rt)
	case prog.OpStoreSlot:
		ra := lo.getVal(in.A)
		lo.a.StoreWord(ra, lo.sp, int32(lo.meta.SlotOff(in.Slot)), armScratch)
	case prog.OpSlotAddr:
		rt := lo.temp()
		lo.a.AddImm(rt, lo.sp, int32(lo.meta.SlotOff(in.Slot)), armScratch)
		lo.finishDef(in.Dst, rt)
	case prog.OpGlobalAddr:
		rt := lo.temp()
		lo.a.Const32(rt, lo.gaddr(in.Global)+uint32(in.Imm))
		lo.finishDef(in.Dst, rt)
	case prog.OpLoad:
		ra := lo.getVal(in.A)
		rt := lo.temp()
		lo.a.LoadWord(rt, ra, in.Imm, armScratch)
		lo.finishDef(in.Dst, rt)
	case prog.OpStore:
		ra := lo.getVal(in.A)
		rb := lo.getVal(in.B)
		lo.a.StoreWord(rb, ra, in.Imm, armScratch)
	case prog.OpFuncAddr:
		rt := lo.temp()
		lo.a.Const32Wide(rt, lo.entries[in.Fn])
		lo.finishDef(in.Dst, rt)
	case prog.OpCall:
		lo.storeCallArgs(in.Args)
		lo.cache.invalidateAll()
		lo.a.Emit(isa.Inst{Op: isa.OpCall, Target: lo.entries[in.Fn]})
		lo.a.Label(callSiteLabel(lo.callN))
		lo.callN++
		lo.finishDef(in.Dst, lo.retReg)
	case prog.OpCallInd:
		rf := lo.getVal(in.A) // stays pinned across the argument stores
		lo.storeCallArgs(in.Args)
		lo.cache.invalidateAll()
		lo.a.Emit(isa.Inst{Op: isa.OpCallI, Dst: isa.R(rf)})
		lo.a.Label(callSiteLabel(lo.callN))
		lo.callN++
		lo.finishDef(in.Dst, lo.retReg)
	case prog.OpSyscall:
		lo.lowerSyscall(in)
	case prog.OpRet:
		if in.A != prog.NoVReg {
			ra := lo.getVal(in.A)
			lo.emitMovReg(lo.retReg, ra)
		}
		lo.a.Jmp("epi")
	case prog.OpJmp:
		lo.emitEdgeActions(lo.edgeActions(b.ID, in.Blk))
		lo.a.Jmp(blockLabel(in.Blk))
	case prog.OpBr, prog.OpBrImm:
		lo.lowerBranch(b, in)
	default:
		panic(fmt.Sprintf("compiler: unhandled IR op %s", in.Kind))
	}
}

func (lo *lowerer) lowerBin(in *prog.Instr) {
	switch in.Bin {
	case prog.BinDiv:
		lo.lowerDiv(in, false)
		return
	case prog.BinShl, prog.BinShr:
		if lo.k == isa.X86 {
			lo.lowerShiftX86(in)
			return
		}
	}
	ra := lo.getVal(in.A)
	if lo.k == isa.X86 {
		rt := lo.temp()
		lo.emitMovReg(rt, ra)
		opd := lo.getOpd(in.B)
		lo.a.Emit(isa.Inst{Op: in.Bin.MachineOp(), Dst: isa.R(rt), Src: opd})
		lo.finishDef(in.Dst, rt)
		return
	}
	rb := lo.getVal(in.B)
	rt := lo.temp()
	lo.a.Emit(isa.Inst{Op: in.Bin.MachineOp(), Dst: isa.R(rt), Src: isa.R(rb), Src2: isa.R(ra)})
	lo.finishDef(in.Dst, rt)
}

func (lo *lowerer) lowerBinImm(in *prog.Instr) {
	if in.Bin == prog.BinDiv {
		lo.lowerDiv(in, true)
		return
	}
	ra := lo.getVal(in.A)
	rt := lo.temp()
	if lo.k == isa.X86 {
		lo.emitMovReg(rt, ra)
		lo.a.Emit(isa.Inst{Op: in.Bin.MachineOp(), Dst: isa.R(rt), Src: isa.I(in.Imm)})
		lo.finishDef(in.Dst, rt)
		return
	}
	if isa.FitsARMImm(in.Imm) && in.Bin != prog.BinMul {
		lo.a.Emit(isa.Inst{Op: in.Bin.MachineOp(), Dst: isa.R(rt), Src: isa.I(in.Imm), Src2: isa.R(ra)})
	} else {
		ri := lo.temp()
		lo.a.Const32(ri, uint32(in.Imm))
		lo.a.Emit(isa.Inst{Op: in.Bin.MachineOp(), Dst: isa.R(rt), Src: isa.R(ri), Src2: isa.R(ra)})
	}
	lo.finishDef(in.Dst, rt)
}

// lowerDiv handles x86's implicit eax/edx division and ARM's plain form.
func (lo *lowerer) lowerDiv(in *prog.Instr, imm bool) {
	if lo.k == isa.ARM {
		ra := lo.getVal(in.A)
		var rb isa.Reg
		if imm {
			rb = lo.temp()
			lo.a.Const32(rb, uint32(in.Imm))
		} else {
			rb = lo.getVal(in.B)
		}
		rt := lo.temp()
		lo.a.Emit(isa.Inst{Op: isa.OpDiv, Dst: isa.R(rt), Src: isa.R(rb), Src2: isa.R(ra)})
		lo.finishDef(in.Dst, rt)
		return
	}
	// x86: dividend in EAX, divisor any r/m (not EAX/EDX), EDX clobbered.
	lo.cache.evictReg(isa.EAX)
	lo.cache.evictReg(isa.EDX)
	lo.pin(isa.EAX)
	lo.pin(isa.EDX)
	ra := lo.getVal(in.A)
	lo.emitMovReg(isa.EAX, ra)
	var opd isa.Operand
	if imm {
		// EDX is clobbered by the division anyway, so it can carry an
		// immediate divisor without costing a scratch register.
		lo.a.Const32(isa.EDX, uint32(in.Imm))
		opd = isa.R(isa.EDX)
	} else {
		opd = lo.getOpd(in.B)
		if opd.IsReg(isa.EAX) || opd.IsReg(isa.EDX) {
			opd = isa.MB(lo.sp, lo.home(in.B)) // home is current (write-through)
		}
	}
	lo.a.Emit(isa.Inst{Op: isa.OpDiv, Dst: isa.R(isa.EAX), Src: opd})
	lo.finishDef(in.Dst, isa.EAX)
}

// lowerShiftX86 routes variable shift counts through CL.
func (lo *lowerer) lowerShiftX86(in *prog.Instr) {
	lo.cache.evictReg(isa.ECX)
	lo.pin(isa.ECX)
	rb := lo.getVal(in.B)
	lo.emitMovReg(isa.ECX, rb)
	if lo.isScratch(rb) {
		lo.unpin(rb) // the count now lives in ECX
	}
	ra := lo.getVal(in.A)
	rt := lo.temp()
	lo.emitMovReg(rt, ra)
	lo.a.Emit(isa.Inst{Op: in.Bin.MachineOp(), Dst: isa.R(rt), Src: isa.R(isa.ECX)})
	lo.finishDef(in.Dst, rt)
}

// storeCallArgs writes arguments into the outgoing-argument area at the
// bottom of the caller's frame. Pins held by the caller (e.g. an indirect
// call's target register) are preserved; only the per-argument pin is
// dropped between iterations.
func (lo *lowerer) storeCallArgs(args []prog.VReg) {
	for i, av := range args {
		pre := make(map[isa.Reg]bool, len(lo.pins))
		for k, v := range lo.pins {
			pre[k] = v
		}
		r := lo.getVal(av)
		lo.a.StoreWord(r, lo.sp, int32(4*i), armScratch)
		lo.pins = pre
	}
}

func (lo *lowerer) lowerSyscall(in *prog.Instr) {
	argRegs := isa.SyscallArgRegs(lo.k)
	if len(in.Args) > len(argRegs) {
		panic(fmt.Sprintf("compiler: syscall with %d args (max %d)", len(in.Args), len(argRegs)))
	}
	// Spill loop-bound registers that overlap the syscall register set so
	// homes are current, then pass everything via homes.
	var spilled []edgeAction
	for v, r := range lo.bind {
		for _, ar := range argRegs {
			if r == ar {
				spilled = append(spilled, edgeAction{v: v, r: r})
			}
		}
	}
	sort.Slice(spilled, func(i, j int) bool { return spilled[i].v < spilled[j].v })
	for _, s := range spilled {
		lo.a.StoreWord(s.r, lo.sp, lo.home(s.v), armScratch)
	}
	lo.cache.invalidateAll()
	for i, av := range in.Args {
		lo.a.LoadWord(argRegs[i], lo.sp, lo.home(av), armScratch)
	}
	numReg := lo.retReg // EAX / R0 carries the syscall number
	lo.a.Const32(numReg, uint32(in.Imm))
	lo.a.Emit(isa.Inst{Op: isa.OpSys, Imm: isa.SyscallVector})
	// Restore loop bindings before routing the result, so a bound
	// destination is not re-clobbered by its own (stale) reload.
	for _, s := range spilled {
		lo.a.LoadWord(s.r, lo.sp, lo.home(s.v), armScratch)
	}
	lo.finishDef(in.Dst, lo.retReg)
}

func (lo *lowerer) lowerBranch(b *prog.Block, in *prog.Instr) {
	ra := lo.getVal(in.A)
	if in.Kind == prog.OpBr {
		if lo.k == isa.X86 {
			opd := lo.getOpd(in.B)
			lo.a.Emit(isa.Inst{Op: isa.OpCmp, Dst: isa.R(ra), Src: opd})
		} else {
			rb := lo.getVal(in.B)
			lo.a.Emit(isa.Inst{Op: isa.OpCmp, Dst: isa.R(ra), Src: isa.R(rb)})
		}
	} else {
		if lo.k == isa.ARM && !isa.FitsARMImm(in.Imm) {
			ri := lo.temp()
			lo.a.Const32(ri, uint32(in.Imm))
			lo.a.Emit(isa.Inst{Op: isa.OpCmp, Dst: isa.R(ra), Src: isa.R(ri)})
		} else {
			lo.a.Emit(isa.Inst{Op: isa.OpCmp, Dst: isa.R(ra), Src: isa.I(in.Imm)})
		}
	}
	tActs := lo.edgeActions(b.ID, in.Blk)
	fActs := lo.edgeActions(b.ID, in.Blk2)
	tLabel := blockLabel(in.Blk)
	fLabel := blockLabel(in.Blk2)
	var stubT, stubF string
	if len(tActs) > 0 {
		stubT = fmt.Sprintf("b%d.s%d", b.ID, lo.stubN)
		lo.stubN++
		lo.a.Jcc(in.Cond, stubT)
	} else {
		lo.a.Jcc(in.Cond, tLabel)
	}
	// Always end the block with an explicit jump (even for layout-order
	// fall-through) so every basic block ends in a control transfer the
	// DBT can translate independently.
	if len(fActs) > 0 {
		stubF = fmt.Sprintf("b%d.s%d", b.ID, lo.stubN)
		lo.stubN++
		lo.a.Jmp(stubF)
	} else {
		lo.a.Jmp(fLabel)
	}
	if stubT != "" {
		lo.a.Label(stubT)
		lo.emitEdgeActions(tActs)
		lo.a.Jmp(tLabel)
	}
	if stubF != "" {
		lo.a.Label(stubF)
		lo.emitEdgeActions(fActs)
		lo.a.Jmp(fLabel)
	}
}
