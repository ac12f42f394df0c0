package isa

import "fmt"

// Asm is a small two-pass assembler over the Inst vocabulary with symbolic
// labels. The compiler backends, the PSR translator, and tests use it to
// emit position-correct machine code for either ISA.
//
// Both encoders emit fixed sizes per (op, operand shape), so a single
// sizing pass followed by a fix-up pass suffices.
type Asm struct {
	kind   Kind
	base   uint32
	items  []asmItem
	labels map[string]int // label -> item index it precedes
	err    error

	// Reusable Assemble outputs; see Reset.
	buf        []byte
	labelAddrs map[string]uint32
}

type asmItem struct {
	inst  Inst
	label string // direct-branch target label, when symbolic
	addr  uint32
	size  uint8
}

// NewAsm returns an assembler for ISA k emitting at base.
func NewAsm(k Kind, base uint32) *Asm {
	return &Asm{kind: k, base: base, labels: make(map[string]int)}
}

// Reset reinitializes the assembler for a new unit at base, retaining the
// instruction, label, and output buffers of previous units. The slices and
// map returned by the previous Assemble are invalidated — callers that
// Reset must be done with them (the PSR translator is: translated bytes
// are committed to memory, label addresses copied into trap tables, before
// the next unit begins).
func (a *Asm) Reset(k Kind, base uint32) {
	a.kind = k
	a.base = base
	a.items = a.items[:0]
	clear(a.labels)
	a.err = nil
}

// Base returns the emission base address.
func (a *Asm) Base() uint32 { return a.base }

// Err returns the first error recorded while appending.
func (a *Asm) Err() error { return a.err }

// Emit appends a non-branching (or absolute-target) instruction.
func (a *Asm) Emit(in Inst) {
	in.ISA = a.kind
	if in.Cond == 0 && in.Op != OpJcc {
		in.Cond = CondAlways
	}
	a.items = append(a.items, asmItem{inst: in})
}

// EmitTo appends a direct control transfer to a label.
func (a *Asm) EmitTo(in Inst, label string) {
	in.ISA = a.kind
	a.items = append(a.items, asmItem{inst: in, label: label})
}

// Label binds name to the next emitted instruction.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.err = fmt.Errorf("isa: duplicate label %q", name)
		return
	}
	a.labels[name] = len(a.items)
}

// Jmp emits an unconditional jump to label.
func (a *Asm) Jmp(label string) { a.EmitTo(Inst{Op: OpJmp, Cond: CondAlways}, label) }

// Jcc emits a conditional jump to label.
func (a *Asm) Jcc(c Cond, label string) { a.EmitTo(Inst{Op: OpJcc, Cond: c}, label) }

// Call emits a direct call to label.
func (a *Asm) Call(label string) { a.EmitTo(Inst{Op: OpCall, Cond: CondAlways}, label) }

// Len reports the number of instructions emitted so far.
func (a *Asm) Len() int { return len(a.items) }

// emitARMConst emits the movw/movt sequence loading v into rd — the
// allocation-free twin of MaterializeARMConst for the emission helpers.
func (a *Asm) emitARMConst(rd Reg, v uint32) {
	a.Emit(Inst{Op: OpMov, Dst: R(rd), Src: I(int32(v & 0xFFFF))})
	if v>>16 != 0 {
		a.Emit(Inst{Op: OpMovT, Dst: R(rd), Src: I(int32(v >> 16))})
	}
}

// LoadWord emits a word load rd = mem[base+off]. On ARM, offsets outside
// the 13-bit immediate range are legalized through the scratch register
// (materialize offset, add base, register-offset load) — the "additional
// instructions and register temporaries" the paper describes for missing
// addressing modes.
func (a *Asm) LoadWord(rd, base Reg, off int32, scratch Reg) {
	if a.kind == X86 {
		a.Emit(Inst{Op: OpMov, Dst: R(rd), Src: MB(base, off)})
		return
	}
	if FitsARMImm(off) {
		a.Emit(Inst{Op: OpLoad, Dst: R(rd), Src: MB(base, off)})
		return
	}
	a.emitARMConst(scratch, uint32(off))
	a.Emit(Inst{Op: OpAdd, Dst: R(scratch), Src: R(base), Src2: R(scratch)})
	a.Emit(Inst{Op: OpLoad, Dst: R(rd), Src: MB(scratch, 0)})
}

// StoreWord emits mem[base+off] = rs, legalizing large ARM offsets through
// scratch (which must differ from rs).
func (a *Asm) StoreWord(rs, base Reg, off int32, scratch Reg) {
	if a.kind == X86 {
		a.Emit(Inst{Op: OpMov, Dst: MB(base, off), Src: R(rs)})
		return
	}
	if FitsARMImm(off) {
		a.Emit(Inst{Op: OpStore, Dst: MB(base, off), Src: R(rs)})
		return
	}
	a.emitARMConst(scratch, uint32(off))
	a.Emit(Inst{Op: OpAdd, Dst: R(scratch), Src: R(base), Src2: R(scratch)})
	a.Emit(Inst{Op: OpStore, Dst: MB(scratch, 0), Src: R(rs)})
}

// AddImm emits dst = src + imm, legalizing large ARM immediates through
// scratch.
func (a *Asm) AddImm(dst, src Reg, imm int32, scratch Reg) {
	if a.kind == X86 {
		if dst != src {
			a.Emit(Inst{Op: OpLea, Dst: R(dst), Src: MB(src, imm)})
		} else if imm != 0 {
			a.Emit(Inst{Op: OpAdd, Dst: R(dst), Src: I(imm)})
		}
		return
	}
	if FitsARMImm(imm) {
		a.Emit(Inst{Op: OpAdd, Dst: R(dst), Src: I(imm), Src2: R(src)})
		return
	}
	a.emitARMConst(scratch, uint32(imm))
	a.Emit(Inst{Op: OpAdd, Dst: R(dst), Src: R(scratch), Src2: R(src)})
}

// Const32 emits dst = v: one mov on x86, movw/movt on ARM.
func (a *Asm) Const32(dst Reg, v uint32) {
	if a.kind == X86 {
		a.Emit(Inst{Op: OpMov, Dst: R(dst), Src: I(int32(v))})
		return
	}
	a.emitARMConst(dst, v)
}

// Const32Wide is Const32 but always emits the full-width form (movw+movt
// on ARM) so instruction sizes stay stable across assembler passes whose
// constant values differ.
func (a *Asm) Const32Wide(dst Reg, v uint32) {
	if a.kind == X86 {
		a.Emit(Inst{Op: OpMov, Dst: R(dst), Src: I(int32(v))})
		return
	}
	a.Emit(Inst{Op: OpMov, Dst: R(dst), Src: I(int32(v & 0xFFFF))})
	a.Emit(Inst{Op: OpMovT, Dst: R(dst), Src: I(int32(v >> 16))})
}

// Assemble resolves labels and encodes all instructions. It returns the
// code bytes and the address of each label. Both are owned by the
// assembler and remain valid until the next Reset.
//
// Every instruction is encoded straight into the assembler's buffer, and
// label-targeted items are re-encoded over their own bytes, so assembling
// on a warmed assembler (one whose buffers have grown to the unit's size)
// allocates nothing.
func (a *Asm) Assemble() ([]byte, map[string]uint32, error) {
	if a.err != nil {
		return nil, nil, a.err
	}
	// Pass 1: size and encode each instruction. Label targets are
	// temporarily resolved to the instruction's own address (always
	// encodable); both encoders emit fixed sizes per (op, operand shape),
	// so only label-targeted items need re-encoding once label addresses
	// are known — everything else is already final.
	addr := a.base
	a.buf = a.buf[:0]
	for i := range a.items {
		it := &a.items[i]
		in := it.inst
		in.Addr = addr
		if it.label != "" {
			in.Target = addr
		}
		n := len(a.buf)
		var err error
		if a.buf, err = Encode(a.kind, &in, a.buf); err != nil {
			return nil, nil, fmt.Errorf("isa: sizing %s: %w", in.String(), err)
		}
		it.addr = addr
		it.size = uint8(len(a.buf) - n)
		addr += uint32(it.size)
	}
	if a.labelAddrs == nil {
		a.labelAddrs = make(map[string]uint32, len(a.labels))
	} else {
		clear(a.labelAddrs)
	}
	for name, idx := range a.labels {
		if idx >= len(a.items) {
			a.labelAddrs[name] = addr // label at end of stream
		} else {
			a.labelAddrs[name] = a.items[idx].addr
		}
	}
	// Pass 2: re-encode label-targeted items in place with final targets:
	// each appends to the empty slice at its own offset, so it overwrites
	// its sizing-pass bytes and nothing else.
	for i := range a.items {
		it := &a.items[i]
		if it.label == "" {
			continue
		}
		in := it.inst
		in.Addr = it.addr
		t, ok := a.labelAddrs[it.label]
		if !ok {
			return nil, nil, fmt.Errorf("isa: undefined label %q", it.label)
		}
		in.Target = t
		off := it.addr - a.base
		enc, err := Encode(a.kind, &in, a.buf[off:off:off+uint32(it.size)])
		if err != nil {
			return nil, nil, fmt.Errorf("isa: encoding %s: %w", in.String(), err)
		}
		if len(enc) != int(it.size) {
			return nil, nil, fmt.Errorf("isa: unstable size for %s: %d then %d", in.String(), it.size, len(enc))
		}
	}
	return a.buf, a.labelAddrs, nil
}
