package dbt

import (
	"errors"
	"fmt"
	"slices"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/psr"
)

// VM trap vectors embedded in translated code. Program syscalls keep their
// native vector (isa.SyscallVector); everything else traps into the
// virtual machine.
const (
	vecSyscall  = isa.SyscallVector
	vecIndirect = 0x81 // indirect call/jump dispatch
	vecChain    = 0x82 // direct branch to untranslated target (patch site)
	vecKill     = 0x83 // untranslatable/forbidden code reached
	vecPopPC    = 0x84 // ARM pop-into-PC return dispatch
)

// ErrNotText reports a translation request for an address outside the
// current ISA's text section.
var ErrNotText = errors.New("dbt: address not in text section")

// maxUnitInstrs bounds a translation unit (gadget streams can run long).
const maxUnitInstrs = 256

// trapMeta describes one emitted trap site.
type trapMeta struct {
	vec int32
	gen int // cache generation, for stale-patch detection
	// Chain traps.
	srcTarget uint32
	patchAddr uint32
	patchOp   isa.Op
	patchCond isa.Cond
	// Indirect traps.
	operand    isa.Operand
	isCall     bool
	srcRet     uint32 // source return address for indirect calls
	delta      int32  // SP delta at the trap
	fnIndex    int    // function whose map governs the trap site
	physState  bool   // register state is in boundary (physical) form
	targetSlot int32  // staged target frame offset (indirect calls); 0 = none
}

// callMeta describes a translated direct call site.
type callMeta struct {
	srcRet uint32
}

// translator translates one unit (a run of source instructions up to a
// control transfer) under a relocation map.
type translator struct {
	vm    *VM
	k     isa.Kind
	fn    *fatbin.FuncMeta
	m     *psr.Map
	a     *isa.Asm
	delta int32 // current ESP displacement from the frame base

	insts    []isa.Inst // decoded source unit
	callCtx  []int      // per instruction: index of next call in unit, or -1
	tmps     []isa.Reg
	tmpN     int
	labelN   int
	newTraps []pendingTrap
	newCalls []pendingCall
}

type pendingTrap struct {
	label string // label of the trap instruction
	meta  trapMeta
	// For chain traps, the label of the branch instruction to patch.
	patchLabel string
}

type pendingCall struct {
	label  string // label of the call instruction
	srcRet uint32
}

// translateUnit runs the translator on src and packages its output,
// assembled for cache address base, as a base-relative unit. The unit also
// records the relocation maps the translator built and its warm-target
// cache lookups, which a shared-cache hit replays. The unit is the VM's
// scratch unit, whose storage the next translation reuses (its code is the
// assembler's buffer); publishing it takes a clone.
func (vm *VM) translateUnit(k isa.Kind, fn *fatbin.FuncMeta, src, base uint32) (*unitEntry, error) {
	c := vm.caches[k]
	mapN := len(vm.mapOrder)
	lk0, ht0 := c.Lookups, c.Hits
	if vm.xs.asm == nil {
		vm.xs.asm = isa.NewAsm(k, base)
	} else {
		vm.xs.asm.Reset(k, base)
	}
	m := vm.MapOf(fn)[k]
	t := &translator{
		vm:       vm,
		k:        k,
		fn:       fn,
		m:        m,
		a:        vm.xs.asm,
		tmps:     m.FreeRegs,
		insts:    vm.xs.insts[:0],
		callCtx:  vm.xs.callCtx[:0],
		newTraps: vm.xs.newTraps[:0],
		newCalls: vm.xs.newCalls[:0],
	}
	// Hand the (possibly grown) buffers on to the next translation.
	defer func() {
		vm.xs.insts, vm.xs.callCtx = t.insts, t.callCtx
		vm.xs.newTraps, vm.xs.newCalls = t.newTraps, t.newCalls
	}()
	if err := t.run(src); err != nil {
		return nil, err
	}
	t.flushStubs()
	code, labels, err := t.a.Assemble()
	if err != nil {
		return nil, fmt.Errorf("dbt: assembling unit for %#x: %w", src, err)
	}
	u := &vm.xs.unit
	u.code = code
	u.stubOff = labels[stubsLabel] - base
	u.covered = t.srcRanges(u.covered[:0])
	u.mapBuilds = append(u.mapBuilds[:0], vm.mapOrder[mapN:]...)
	u.lookupDelta, u.hitDelta = c.Lookups-lk0, c.Hits-ht0
	u.traps, u.calls = u.traps[:0], u.calls[:0]
	for _, pt := range t.newTraps {
		ut := unitTrap{off: labels[pt.label] - base, meta: pt.meta}
		if pt.patchLabel != "" {
			ut.patchOff = labels[pt.patchLabel] - base
			ut.hasPatch = true
		}
		u.traps = append(u.traps, ut)
	}
	for _, pc := range t.newCalls {
		u.calls = append(u.calls, unitCall{off: labels[pc.label] - base, srcRet: pc.srcRet})
	}
	return u, nil
}

func (t *translator) tmp() isa.Reg {
	if len(t.tmps) == 0 {
		panic("dbt: relocation map provided no translator temporaries")
	}
	if t.tmpN >= len(t.tmps) {
		// Compiled code never exhausts the pool (the relocation maps
		// guarantee enough temporaries for its operand shapes); only
		// attacker-crafted gadget operands can — reuse wraps around,
		// further scrambling the gadget's effect.
		t.tmpN = 0
	}
	r := t.tmps[t.tmpN]
	t.tmpN++
	return r
}

func (t *translator) resetTmps() { t.tmpN = 0 }

func (t *translator) newLabel(prefix string) string {
	t.labelN++
	return fmt.Sprintf("%s%d", prefix, t.labelN)
}

// decodeUnit decodes source instructions starting at src until a
// unit-ending control transfer. Direct calls do not end the unit.
func (t *translator) decodeUnit(src uint32) error {
	text := t.vm.Bin.Text[t.k]
	base := fatbin.TextBase(t.k)
	addr := src
	for len(t.insts) < maxUnitInstrs {
		off := addr - base
		if off >= uint32(len(text)) {
			break
		}
		// Decode into the next slot, which may hold an earlier unit's
		// instruction: Decode overwrites every field.
		n := len(t.insts)
		t.insts = slices.Grow(t.insts, 1)[:n+1]
		in := &t.insts[n]
		if err := isa.Decode(t.k, text[off:], addr, in); err != nil {
			t.insts = t.insts[:n]
			if n == 0 {
				return fmt.Errorf("dbt: undecodable code at %#x: %w", addr, err)
			}
			break // emit what we have; the tail becomes a kill trap
		}
		// Superblock formation (O1, §5.4): fold forward unconditional
		// branches within the function by continuing translation at the
		// target — single entry, multiple exits, with code duplication
		// traded for locality.
		if in.Op == isa.OpJmp && t.vm.Cfg.Opt >= O1 &&
			in.Target > addr && in.Target < t.fn.End[t.k] &&
			n < maxUnitInstrs-16 {
			addr = in.Target
			t.insts = t.insts[:n]
			continue
		}
		addr += uint32(in.Size)
		if endsUnit(in) {
			break
		}
	}
	// Argument-store context: nearest following call within the unit.
	if cap(t.callCtx) >= len(t.insts) {
		t.callCtx = t.callCtx[:len(t.insts)]
	} else {
		t.callCtx = make([]int, len(t.insts))
	}
	next := -1
	for i := len(t.insts) - 1; i >= 0; i-- {
		op := t.insts[i].Op
		if op == isa.OpCall || op == isa.OpCallI {
			next = i
		}
		t.callCtx[i] = next
	}
	return nil
}

func endsUnit(in *isa.Inst) bool {
	switch in.Op {
	case isa.OpJmp, isa.OpJcc, isa.OpRet, isa.OpJmpI, isa.OpCallI, isa.OpBx, isa.OpHlt:
		return true
	case isa.OpPopM:
		return in.RegMask&(1<<isa.PC) != 0
	}
	return false
}

// remapFrameOff translates a canonical frame offset to its relocated
// offset. callee is the map of the call the access feeds (nil when the
// access is not an outgoing-argument store); indirect marks stores feeding
// an indirect call (staged instead).
func remapFrameOff(m *psr.Map, xc int32, callee *psr.Map, indirect bool) int32 {
	if to, ok := m.OffTo[xc]; ok {
		return to
	}
	fs := int32(m.Fn.FrameSize)
	switch {
	case xc >= 0 && xc < psr.ArgWindow && xc%4 == 0 && callee != nil && int(xc/4) < len(callee.ArgOff):
		// Outgoing argument store under the callee's randomized
		// convention.
		return callee.ArgOff[xc/4]
	case xc >= 0 && xc < psr.ArgWindow && xc%4 == 0 && indirect:
		return m.StageOff + xc
	case xc == fs:
		return m.RetOff
	case xc > fs+4 || (xc >= fs+4 && xc < fs+4+4*int32(m.Fn.NumArgs)):
		if xc >= fs+4 && (xc-fs-4)%4 == 0 {
			i := int((xc - fs - 4) / 4)
			if i < len(m.ArgOff) {
				// Incoming argument under this function's convention.
				return int32(m.NewFrameSize) + m.ArgOff[i]
			}
		}
		// Beyond the frame: shift by the frame growth.
		return xc + int32(m.NewFrameSize) - fs - 4
	}
	// Unknown offset inside the frame (gadget access): leave raw. The
	// state it hoped to find has been relocated elsewhere.
	return xc
}

// calleeCtx returns the callee's map (and indirectness) governing
// outgoing-argument stores at instruction index i.
func (t *translator) calleeCtx(i int) (*psr.Map, bool) {
	ci := t.callCtx[i]
	if ci < 0 {
		return nil, false
	}
	call := &t.insts[ci]
	if call.Op == isa.OpCallI {
		return nil, true
	}
	if fn := t.vm.Bin.FuncAt(t.k, call.Target); fn != nil {
		return t.vm.MapOf(fn)[t.k], false
	}
	return nil, false
}

// lowerOperand rewrites an operand under the relocation map, emitting
// loads into temporaries when a relocated value is needed in a register.
// asDest marks destination operands (no value load for pure overwrites is
// still required for memory bases, so the handling is identical except
// that register-relocated-to-stack destinations come back as memory
// operands).
func (t *translator) lowerOperand(o isa.Operand, idx int) isa.Operand {
	switch o.Kind {
	case isa.OpdImm, isa.OpdNone:
		return o
	case isa.OpdReg:
		l := t.m.LocOfReg(o.Reg)
		if o.Reg == isa.StackReg(t.k) || (t.k == isa.ARM && (o.Reg == isa.LR || o.Reg == isa.PC)) {
			return o
		}
		if l.Kind == psr.LocReg {
			return isa.R(l.Reg)
		}
		return isa.MB(isa.StackReg(t.k), l.Off-t.delta)
	case isa.OpdMem:
		mref := o.Mem
		sp := isa.StackReg(t.k)
		if mref.HasBase && mref.Base == sp && !mref.HasIndex {
			callee, indirect := t.calleeCtx(idx)
			xc := mref.Disp + t.delta
			mref.Disp = remapFrameOff(t.m, xc, callee, indirect) - t.delta
			return isa.M(mref)
		}
		// Relocated base/index registers must be materialized.
		if mref.HasBase && mref.Base != sp {
			l := t.m.LocOfReg(mref.Base)
			if l.Kind == psr.LocReg {
				mref.Base = l.Reg
			} else {
				r := t.tmp()
				t.a.LoadWord(r, sp, l.Off-t.delta, armScratchFor(t.k, r))
				mref.Base = r
			}
		}
		if mref.HasIndex {
			l := t.m.LocOfReg(mref.Index)
			if l.Kind == psr.LocReg {
				mref.Index = l.Reg
			} else {
				r := t.tmp()
				t.a.LoadWord(r, sp, l.Off-t.delta, armScratchFor(t.k, r))
				mref.Index = r
			}
		}
		return isa.M(mref)
	}
	return o
}

// armScratchFor returns the legalization scratch for ARM emissions,
// avoiding collision with the register being loaded.
func armScratchFor(k isa.Kind, avoid isa.Reg) isa.Reg {
	if k == isa.X86 {
		return isa.NoReg // unused on x86
	}
	if avoid == isa.R12 {
		return isa.R11
	}
	return isa.R12
}

// run translates the decoded unit, emitting into t.a.
func (t *translator) run(src uint32) error {
	if err := t.decodeUnit(src); err != nil {
		return err
	}
	i := 0
	for i < len(t.insts) {
		t.resetTmps()
		consumed := t.peephole(i)
		if consumed > 0 {
			i += consumed
			continue
		}
		in := t.insts[i]
		switch {
		case t.rewriteControl(&in, i):
		case t.k == isa.X86:
			t.rewriteX86(&in, i)
		default:
			t.rewriteARM(&in, i)
		}
		i++
	}
	// Decode stopped mid-stream without a terminator (invalid bytes or
	// unit-length cap): end with a kill or chain trap.
	last := &t.insts[len(t.insts)-1]
	if !endsUnit(last) && last.Op != isa.OpCall {
		if len(t.insts) >= maxUnitInstrs {
			// Long straight-line run: chain to its continuation.
			t.emitChain(last.Addr+uint32(last.Size), isa.OpJmp, isa.CondAlways)
		} else {
			t.emitKill()
		}
	} else if last.Op == isa.OpCall {
		// Unit ended on a decode failure right after a call: the return
		// path re-enters via the RAT, but straight-line flow is dead.
		t.emitKill()
	}
	return nil
}

// peephole recognizes multi-instruction prologue/epilogue units (ARM) at
// index i, returning the number of source instructions consumed (0 if no
// pattern matched).
func (t *translator) peephole(i int) int {
	if t.k != isa.ARM {
		return 0
	}
	ins := t.insts
	fs := int32(t.fn.FrameSize)
	nfs := int32(t.m.NewFrameSize)
	sp := isa.SP
	// spAdjust matches `sub sp,sp,#x` / `add sp,sp,#-x` forms, returning
	// the downward adjustment.
	spAdjust := func(in *isa.Inst) (int32, bool) {
		if !in.Dst.IsReg(sp) || !in.Src2.IsReg(sp) || in.Src.Kind != isa.OpdImm {
			return 0, false
		}
		switch in.Op {
		case isa.OpSub:
			return in.Src.Imm, true
		case isa.OpAdd:
			return -in.Src.Imm, true
		}
		return 0, false
	}
	adj := func(in *isa.Inst, want int32) bool {
		v, ok := spAdjust(in)
		return ok && v == want
	}
	// Prologue: sub sp,#4 ; str lr,[sp] ; sub sp,#FS
	if i+2 < len(ins) && adj(&ins[i], 4) &&
		ins[i+1].Op == isa.OpStore && ins[i+1].Src.IsReg(isa.LR) &&
		ins[i+1].Dst.Kind == isa.OpdMem && ins[i+1].Dst.Mem.Base == sp && ins[i+1].Dst.Mem.Disp == 0 &&
		adj(&ins[i+2], fs) {
		t.a.AddImm(sp, sp, -nfs, isa.R12)
		t.a.StoreWord(isa.LR, sp, t.m.RetOff, isa.R12)
		t.delta = 0
		t.emitReRelocate()
		return 3
	}
	// Epilogue: add sp,#FS ; ldr lr,[sp] ; add sp,#4 ; bx lr
	if i+3 < len(ins) && adj(&ins[i], -fs) &&
		ins[i+1].Op == isa.OpLoad && ins[i+1].Dst.IsReg(isa.LR) &&
		ins[i+1].Src.Kind == isa.OpdMem && ins[i+1].Src.Mem.Base == sp && ins[i+1].Src.Mem.Disp == 0 &&
		adj(&ins[i+2], -4) &&
		ins[i+3].Op == isa.OpBx && ins[i+3].Dst.IsReg(isa.LR) {
		t.emitDeRelocate()
		t.a.LoadWord(isa.LR, sp, t.m.RetOff, isa.R12)
		t.a.AddImm(sp, sp, nfs, isa.R12)
		t.a.Emit(isa.Inst{Op: isa.OpBx, Dst: isa.R(isa.LR)})
		t.delta = 0
		return 4
	}
	return 0
}

// emitChain emits a direct control transfer to srcTarget: a jump straight
// into the cache when the target is already translated, otherwise a branch
// to a local trap stub that will translate the target and patch this site.
func (t *translator) emitChain(srcTarget uint32, op isa.Op, cond isa.Cond) {
	if cacheAddr, ok := t.vm.caches[t.k].Lookup(srcTarget); ok {
		if op == isa.OpJcc {
			t.a.Emit(isa.Inst{Op: isa.OpJcc, Cond: cond, Target: cacheAddr})
		} else {
			t.a.Emit(isa.Inst{Op: isa.OpJmp, Target: cacheAddr})
		}
		return
	}
	stub := t.newLabel("stub")
	patch := t.newLabel("patch")
	t.a.Label(patch)
	t.a.EmitTo(isa.Inst{Op: op, Cond: cond}, stub)
	t.pendingStub(stub, patch, srcTarget, op, cond)
}

// pendingStub records a chain stub to be emitted at the end of the unit.
func (t *translator) pendingStub(stubLabel, patchLabel string, srcTarget uint32, op isa.Op, cond isa.Cond) {
	t.newTraps = append(t.newTraps, pendingTrap{
		label:      stubLabel,
		patchLabel: patchLabel,
		meta: trapMeta{
			vec:       vecChain,
			srcTarget: srcTarget,
			patchOp:   op,
			patchCond: cond,
			fnIndex:   t.fn.Index,
		},
	})
}

// emitTrapHere emits an in-line trap instruction with metadata.
func (t *translator) emitTrapHere(meta trapMeta) {
	lbl := t.newLabel("trap")
	t.a.Label(lbl)
	t.a.Emit(isa.Inst{Op: isa.OpSys, Imm: meta.vec})
	t.newTraps = append(t.newTraps, pendingTrap{label: lbl, meta: meta})
}

func (t *translator) emitKill() {
	t.emitTrapHere(trapMeta{vec: vecKill, fnIndex: t.fn.Index})
}

// srcRanges appends to out the decoded source instructions merged into
// contiguous address ranges (superblock inlining produces gaps).
func (t *translator) srcRanges(out [][2]uint32) [][2]uint32 {
	for i := range t.insts {
		in := &t.insts[i]
		end := in.Addr + uint32(in.Size)
		if n := len(out); n > 0 && out[n-1][1] == in.Addr {
			out[n-1][1] = end
			continue
		}
		out = append(out, [2]uint32{in.Addr, end})
	}
	return out
}

// flushStubs emits the deferred chain-trap stubs after the unit body.
// stubsLabel marks where a unit's deferred trap-stub region begins in the
// assembled code. The translator resolves it through the label map after
// assembly so the code cache can classify stub PCs (profiler VM-dispatch
// attribution). With no stubs the label lands on the unit's end address.
const stubsLabel = "__stubs"

func (t *translator) flushStubs() {
	t.a.Label(stubsLabel)
	for i := range t.newTraps {
		p := &t.newTraps[i]
		if p.meta.vec != vecChain || p.patchLabel == "" {
			continue
		}
		t.a.Label(p.label)
		t.a.Emit(isa.Inst{Op: isa.OpSys, Imm: vecChain})
	}
}
