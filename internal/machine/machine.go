// Package machine implements the architectural state and instruction
// interpreter for both ISAs of the simulated CMP. A Machine executes
// decoded instructions against a shared sparse memory; hooks allow the PSR
// virtual machine to interpose on control transfers (the paper's modified
// call/return macro-ops and indirect-branch policing) and allow the timing
// model to observe every executed instruction.
package machine

import (
	"errors"
	"fmt"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
	"hipstr/internal/telemetry"
)

// MaxInstLen is the widest fetch window needed to decode one instruction.
const MaxInstLen = 16

// Sentinel errors.
var (
	ErrHalted    = errors.New("machine: halted")
	ErrDivZero   = errors.New("machine: divide by zero")
	ErrNoSyscall = errors.New("machine: no syscall handler installed")
)

// ControlKind classifies a control transfer for the ControlHook.
type ControlKind uint8

const (
	CtlJmp ControlKind = iota
	CtlJcc
	CtlCall
	CtlCallInd
	CtlJmpInd
	CtlRet
)

func (k ControlKind) String() string {
	switch k {
	case CtlJmp:
		return "jmp"
	case CtlJcc:
		return "jcc"
	case CtlCall:
		return "call"
	case CtlCallInd:
		return "call*"
	case CtlJmpInd:
		return "jmp*"
	case CtlRet:
		return "ret"
	}
	return "ctl?"
}

// IsIndirect reports whether the transfer's target came from program state
// rather than the instruction encoding.
func (k ControlKind) IsIndirect() bool {
	return k == CtlCallInd || k == CtlJmpInd || k == CtlRet
}

// Flags is the condition-flag state shared by both ISA models.
type Flags struct {
	Z bool // zero
	S bool // sign
	C bool // carry/borrow (unsigned below after cmp)
	O bool // signed overflow
}

// Eval evaluates a branch condition against the flags.
func (f Flags) Eval(c isa.Cond) bool {
	switch c {
	case isa.CondAlways:
		return true
	case isa.CondEQ:
		return f.Z
	case isa.CondNE:
		return !f.Z
	case isa.CondLT:
		return f.S != f.O
	case isa.CondGE:
		return f.S == f.O
	case isa.CondGT:
		return !f.Z && f.S == f.O
	case isa.CondLE:
		return f.Z || f.S != f.O
	case isa.CondB:
		return f.C
	case isa.CondAE:
		return !f.C
	}
	return false
}

// State is the copyable architectural state of one core.
type State struct {
	ISA    isa.Kind
	Regs   [16]uint32
	Flags  Flags
	PC     uint32
	Halted bool
	Steps  uint64
}

// SP returns the stack pointer value for the state's ISA.
func (s *State) SP() uint32 { return s.Regs[isa.StackReg(s.ISA)] }

// SetSP sets the stack pointer for the state's ISA.
func (s *State) SetSP(v uint32) { s.Regs[isa.StackReg(s.ISA)] = v }

// ControlHook observes and may redirect a control transfer. target is the
// raw computed target; retAddr is, for calls, the return address about to
// be saved (zero otherwise). The returned values substitute them. A non-nil
// error aborts the instruction.
type ControlHook func(m *Machine, in *isa.Inst, kind ControlKind, target, retAddr uint32) (uint32, uint32, error)

// SyscallHandler services OpSys instructions.
type SyscallHandler func(m *Machine, vector int32) error

// Timing is the machine's only observer interface, the one a
// cycle-accounting model (or a decorator around one, such as the sampling
// profiler) is driven through. Every timed instruction reaches it in one
// CommitBlock, made just before the last of insts executes, with all of
// their dynamic effective addresses already logged in eas (layout at
// isa.Op.StackAccess). Run commits a fused block once, plus the executed
// prefix at a fault or a mid-block code write; Step, which also runs the
// tail of a Run budget that ends inside a block, commits its one
// instruction. bt is the block's timing summary (isa.SummarizeBlock) when
// insts is a whole fused block, and nil otherwise. Implementers must not
// retain insts, bt or eas past the call, and must charge the same however
// instructions are batched: batching changes when accounting runs, never
// what it sums.
type Timing interface {
	CommitBlock(m *Machine, insts []isa.Inst, bt *isa.BlockTiming, eas []uint32)
}

// Machine couples architectural state with memory and execution hooks.
type Machine struct {
	State
	Mem       *mem.Memory
	Syscall   SyscallHandler
	OnControl ControlHook

	// Timing, when non-nil, receives cycle-accounting commits. Fused
	// blocks batch their instructions into one CommitBlock at block exit,
	// which is observation-equivalent because every point that can read
	// the model mid-run (control hooks, syscall handlers, span cycle
	// sources) sits at a block terminator, after the commit.
	Timing Timing

	// blocks is the predecoded basic-block cache driving Run. It lives on
	// the Machine rather than inside State: State is copied and replaced
	// wholesale (process reset, PSR state relocation) and the cache must
	// survive those — correctness is guaranteed by the code generation,
	// not by State identity.
	blocks blockCache

	// Spans, when non-nil, records block-cache invalidation storms as
	// spans on the "machine" track. Reconciles that evict nothing (the
	// common case under DBT translation churn) record nothing.
	Spans *telemetry.SpanTracer

	// eaLog accumulates the dynamic effective addresses of the
	// instructions the next Timing.CommitBlock covers, a fused block's
	// executed body or Step's one instruction (at most two entries per
	// instruction: memory operand EAs plus the pre-exec SP of stack ops).
	// logEA gates the fused arms' logging so the plain (unobserved) fast
	// path never pays for it.
	eaLog [2 * BlockCap]uint32
	eaN   int
	logEA bool

	// stepInst is Step's decode slot, the one-instruction range it commits
	// and executes. Held here rather than on Step's stack, where it would
	// escape through the Timing call and cost an allocation per step. It
	// relies on no hook re-entering Step on the same machine while an
	// instruction executes (the PSR VM's and the gadget analyzer's hooks
	// do not), and on isa.Decode overwriting every field.
	stepInst [1]isa.Inst
}

// New returns a machine for ISA k over memory m.
func New(k isa.Kind, m *mem.Memory) *Machine {
	return &Machine{State: State{ISA: k}, Mem: m}
}

// ea computes the effective address of a memory operand.
func (m *Machine) ea(r isa.MemRef) uint32 {
	var a uint32 = uint32(r.Disp)
	if r.HasBase {
		a += m.Regs[r.Base]
	}
	if r.HasIndex {
		s := uint32(r.Scale)
		if s == 0 {
			s = 1
		}
		a += m.Regs[r.Index] * s
	}
	return a
}

func (m *Machine) readOpd(o isa.Operand) (uint32, error) {
	switch o.Kind {
	case isa.OpdReg:
		return m.Regs[o.Reg&0xF], nil
	case isa.OpdImm:
		return uint32(o.Imm), nil
	case isa.OpdMem:
		return m.Mem.ReadWord(m.ea(o.Mem))
	}
	return 0, fmt.Errorf("machine: read of empty operand")
}

func (m *Machine) writeOpd(o isa.Operand, v uint32) error {
	switch o.Kind {
	case isa.OpdReg:
		m.Regs[o.Reg&0xF] = v
		return nil
	case isa.OpdMem:
		return m.Mem.WriteWord(m.ea(o.Mem), v)
	}
	return fmt.Errorf("machine: write to non-lvalue operand")
}

func (m *Machine) push(v uint32) error {
	sp := m.SP() - 4
	if err := m.Mem.WriteWord(sp, v); err != nil {
		return err
	}
	m.SetSP(sp)
	return nil
}

func (m *Machine) pop() (uint32, error) {
	sp := m.SP()
	v, err := m.Mem.ReadWord(sp)
	if err != nil {
		return 0, err
	}
	m.SetSP(sp + 4)
	return v, nil
}

func (m *Machine) setZS(v uint32) {
	m.Flags.Z = v == 0
	m.Flags.S = int32(v) < 0
}

func (m *Machine) cmpFlags(a, b uint32) {
	r := a - b
	m.setZS(r)
	m.Flags.C = a < b
	m.Flags.O = (int32(a) < 0) != (int32(b) < 0) && (int32(r) < 0) != (int32(a) < 0)
}

// control routes a transfer through the hook and returns the final target.
func (m *Machine) control(in *isa.Inst, kind ControlKind, target, retAddr uint32) (uint32, uint32, error) {
	if m.OnControl == nil {
		return target, retAddr, nil
	}
	return m.OnControl(m, in, kind, target, retAddr)
}

// Step fetches, decodes, and executes one instruction. It is the
// reference path: single-steppers (the gadget analyzer, debug harnesses)
// use it directly, Run single-steps budget tails through it, and the
// differential-semantics tests check the fused path against it. With a
// Timing model attached, Step logs the instruction's addresses as the
// fused generic arm does and commits it alone just before executing it.
// The fetch window lives on the stack and the decoded instruction in the
// Machine, so stepping never allocates.
func (m *Machine) Step() error {
	if m.Halted {
		return ErrHalted
	}
	var win [MaxInstLen]byte
	n, err := m.Mem.FetchInto(m.PC, win[:])
	if err != nil {
		return fmt.Errorf("machine: fetch at %#x: %w", m.PC, err)
	}
	in := &m.stepInst[0]
	if err := isa.Decode(m.ISA, win[:n], m.PC, in); err != nil {
		return fmt.Errorf("machine: decode at %#x: %w", m.PC, err)
	}
	if m.Timing != nil {
		m.eaN = 0
		m.logInstEAs(in)
		m.Timing.CommitBlock(m, m.stepInst[:], nil, m.eaLog[:m.eaN])
	}
	m.Steps++
	if err := m.exec(in); err != nil {
		return fmt.Errorf("machine: at %#x (%s): %w", in.Addr, in.Op, err)
	}
	return nil
}

// Run executes until a halt, an error, or maxSteps instructions. It returns
// the number of instructions executed.
//
// Run dispatches predecoded basic blocks: each block is fetched, decoded,
// and fused into superinstructions once, then re-executed from the cache
// until a code write overlaps it. Every block runs whole through the
// fused arms (runFused): the timing model's delta for the block is
// committed once just before the final architectural instruction
// executes, and the Mem.CodeGen poll runs only after memory-writing
// instructions (the write barrier's dirty signal), so self-modifying
// code still takes effect at the very next instruction.
// Control hooks and syscall handlers only fire at block terminators, so
// no observer needs per-instruction dispatch.
//
// When the remaining step budget ends inside the next block, Run
// single-steps that tail through Step and returns, so a budget tail costs
// at most one partial block per call.
func (m *Machine) Run(maxSteps uint64) (uint64, error) {
	start := m.Steps
	bc := &m.blocks
	var prev *Block // last dispatched block, for successor chaining
	for !m.Halted && m.Steps-start < maxSteps {
		if g := m.Mem.CodeGen(); g != bc.gen {
			m.reconcileSpanned(bc, g)
		}
		var blk *Block
		if prev != nil && prev.next != nil && prev.nextPC == m.PC &&
			prev.nextISA == m.ISA && prev.linkEpoch == bc.epoch {
			// Successor chain: the block most recently executed after
			// prev at this PC is still cached (no eviction since the
			// link was made), so skip the map lookup.
			blk = prev.next
			bc.hits++
		} else {
			blk = bc.lookup(m.ISA, m.PC)
			if blk == nil {
				var err error
				blk, err = bc.refill(m)
				if err != nil {
					return m.Steps - start, err
				}
			}
			if prev != nil {
				prev.next, prev.nextPC = blk, m.PC
				prev.nextISA, prev.linkEpoch = m.ISA, bc.epoch
			}
		}
		prev = blk
		if left := maxSteps - (m.Steps - start); uint64(len(blk.Insts)) > left {
			bc.exactBlocks++
			for ; left > 0 && !m.Halted; left-- {
				if err := m.Step(); err != nil {
					return m.Steps - start, err
				}
			}
			break
		}
		bc.batchedBlocks++
		if err := m.runFused(blk); err != nil {
			return m.Steps - start, err
		}
	}
	return m.Steps - start, nil
}

// reconcileSpanned reconciles the block cache with code generation g,
// recording a span on the "machine" track when the reconcile evicted
// decoded blocks (an invalidation storm). Spans that would describe a
// no-op reconcile are abandoned un-ended, which records nothing.
func (m *Machine) reconcileSpanned(bc *blockCache, g uint64) {
	if m.Spans == nil {
		bc.reconcile(m.Mem, g)
		return
	}
	before := bc.evicted
	fullBefore := bc.fullInvals
	sp := m.Spans.StartSpan("machine", "invalidate")
	bc.reconcile(m.Mem, g)
	dropped := bc.evicted - before
	if dropped == 0 && bc.fullInvals == fullBefore {
		return
	}
	sp.SetISA(m.ISA.String())
	sp.SetDetail(fmt.Sprintf("%d blocks evicted", dropped))
	sp.End()
}

func (m *Machine) exec(in *isa.Inst) error {
	next := in.Addr + uint32(in.Size)
	if in.ByteOp {
		if err := m.execByte(in); err != nil {
			return err
		}
		m.PC = next
		return nil
	}
	switch in.Op {
	case isa.OpNop:
	case isa.OpHlt:
		m.Halted = true
		return nil
	case isa.OpMov, isa.OpLoad, isa.OpStore:
		// All three are one read→write data move; they differ only in
		// which side names memory (x86 mov vs ARM ldr/str).
		v, err := m.readOpd(in.Src)
		if err != nil {
			return err
		}
		if err := m.writeOpd(in.Dst, v); err != nil {
			return err
		}
	case isa.OpMovT:
		v, err := m.readOpd(in.Dst)
		if err != nil {
			return err
		}
		if err := m.writeOpd(in.Dst, v&0xFFFF|uint32(in.Src.Imm)<<16); err != nil {
			return err
		}
	case isa.OpLea:
		if err := m.writeOpd(in.Dst, m.ea(in.Src.Mem)); err != nil {
			return err
		}
	case isa.OpAdd, isa.OpSub, isa.OpRsb, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpMul, isa.OpDiv:
		if err := m.alu(in); err != nil {
			return err
		}
	case isa.OpNeg:
		v, err := m.readOpd(in.Dst)
		if err != nil {
			return err
		}
		r := -v
		m.setZS(r)
		m.Flags.C = v != 0
		if err := m.writeOpd(in.Dst, r); err != nil {
			return err
		}
	case isa.OpNot:
		src := in.Src
		if src.Kind == isa.OpdNone {
			src = in.Dst // x86 one-operand form
		}
		v, err := m.readOpd(src)
		if err != nil {
			return err
		}
		if err := m.writeOpd(in.Dst, ^v); err != nil {
			return err
		}
	case isa.OpInc, isa.OpDec:
		v, err := m.readOpd(in.Dst)
		if err != nil {
			return err
		}
		if in.Op == isa.OpInc {
			v++
		} else {
			v--
		}
		m.setZS(v)
		if err := m.writeOpd(in.Dst, v); err != nil {
			return err
		}
	case isa.OpCmp:
		var a, b uint32
		var err error
		if a, err = m.readOpd(in.Dst); err != nil {
			return err
		}
		if b, err = m.readOpd(in.Src); err != nil {
			return err
		}
		m.cmpFlags(a, b)
	case isa.OpTest:
		a, err := m.readOpd(in.Dst)
		if err != nil {
			return err
		}
		b, err := m.readOpd(in.Src)
		if err != nil {
			return err
		}
		m.setZS(a & b)
		m.Flags.C, m.Flags.O = false, false
	case isa.OpPush:
		v, err := m.readOpd(in.Src)
		if err != nil {
			return err
		}
		if err := m.push(v); err != nil {
			return err
		}
	case isa.OpPop:
		v, err := m.pop()
		if err != nil {
			return err
		}
		if err := m.writeOpd(in.Dst, v); err != nil {
			return err
		}
	case isa.OpPushM:
		n := 0
		for r := 0; r < 16; r++ {
			if in.RegMask&(1<<r) != 0 {
				n++
			}
		}
		sp := m.SP() - uint32(4*n)
		off := sp
		for r := 0; r < 16; r++ {
			if in.RegMask&(1<<r) != 0 {
				if err := m.Mem.WriteWord(off, m.Regs[r]); err != nil {
					return err
				}
				off += 4
			}
		}
		m.SetSP(sp)
	case isa.OpPopM:
		sp := m.SP()
		var pcVal uint32
		hasPC := in.RegMask&(1<<isa.PC) != 0
		for r := 0; r < 16; r++ {
			if in.RegMask&(1<<r) == 0 {
				continue
			}
			v, err := m.Mem.ReadWord(sp)
			if err != nil {
				return err
			}
			sp += 4
			if r == int(isa.PC) {
				pcVal = v
			} else {
				m.Regs[r] = v
			}
		}
		m.SetSP(sp)
		if hasPC {
			t, _, err := m.control(in, CtlRet, pcVal, 0)
			if err != nil {
				return err
			}
			m.PC = t
			return nil
		}
	case isa.OpLeave:
		m.Regs[isa.ESP] = m.Regs[isa.EBP]
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.Regs[isa.EBP] = v
	case isa.OpJmp:
		t, _, err := m.control(in, CtlJmp, in.Target, 0)
		if err != nil {
			return err
		}
		m.PC = t
		return nil
	case isa.OpJcc:
		if m.Flags.Eval(in.Cond) {
			t, _, err := m.control(in, CtlJcc, in.Target, 0)
			if err != nil {
				return err
			}
			m.PC = t
			return nil
		}
	case isa.OpCall:
		t, ra, err := m.control(in, CtlCall, in.Target, next)
		if err != nil {
			return err
		}
		if err := m.SaveRetAddr(ra); err != nil {
			return err
		}
		m.PC = t
		return nil
	case isa.OpCallI:
		raw, err := m.readOpd(in.Dst)
		if err != nil {
			return err
		}
		t, ra, err := m.control(in, CtlCallInd, raw, next)
		if err != nil {
			return err
		}
		if err := m.SaveRetAddr(ra); err != nil {
			return err
		}
		m.PC = t
		return nil
	case isa.OpJmpI:
		raw, err := m.readOpd(in.Dst)
		if err != nil {
			return err
		}
		t, _, err := m.control(in, CtlJmpInd, raw, 0)
		if err != nil {
			return err
		}
		m.PC = t
		return nil
	case isa.OpRet:
		raw, err := m.pop()
		if err != nil {
			return err
		}
		if in.Imm > 0 { // ret imm16 frees extra stack bytes
			m.SetSP(m.SP() + uint32(in.Imm))
		}
		t, _, err := m.control(in, CtlRet, raw, 0)
		if err != nil {
			return err
		}
		m.PC = t
		return nil
	case isa.OpBx:
		raw, err := m.readOpd(in.Dst)
		if err != nil {
			return err
		}
		kind := CtlJmpInd
		if in.Dst.IsReg(isa.LR) {
			kind = CtlRet
		}
		t, _, err := m.control(in, kind, raw, 0)
		if err != nil {
			return err
		}
		m.PC = t
		return nil
	case isa.OpSys:
		m.PC = next // handlers observe the post-instruction PC
		if m.Syscall == nil {
			return ErrNoSyscall
		}
		if err := m.Syscall(m, in.Imm); err != nil {
			return err
		}
		return nil
	default:
		return fmt.Errorf("machine: unimplemented op %s", in.Op)
	}
	m.PC = next
	return nil
}

// SaveRetAddr stores a call's return address per the ISA convention: pushed
// on x86, placed in LR on ARM. Calls, the bootstrap frame, the PSR VM's
// indirect-call dispatch and a callee-entry migration all save through it.
func (m *Machine) SaveRetAddr(ra uint32) error {
	if m.ISA == isa.X86 {
		return m.push(ra)
	}
	m.Regs[isa.LR] = ra
	return nil
}

// execByte implements the 8-bit x86 operand forms: operations read and
// write only the low byte of registers and single bytes of memory.
func (m *Machine) execByte(in *isa.Inst) error {
	readB := func(o isa.Operand) (uint32, error) {
		switch o.Kind {
		case isa.OpdReg:
			return m.Regs[o.Reg&0xF] & 0xFF, nil
		case isa.OpdImm:
			return uint32(o.Imm) & 0xFF, nil
		case isa.OpdMem:
			b, err := m.Mem.LoadByte(m.ea(o.Mem))
			return uint32(b), err
		}
		return 0, fmt.Errorf("machine: byte read of empty operand")
	}
	writeB := func(o isa.Operand, v uint32) error {
		switch o.Kind {
		case isa.OpdReg:
			r := o.Reg & 0xF
			m.Regs[r] = m.Regs[r]&^0xFF | v&0xFF
			return nil
		case isa.OpdMem:
			return m.Mem.StoreByte(m.ea(o.Mem), byte(v))
		}
		return fmt.Errorf("machine: byte write to non-lvalue")
	}
	if in.Op == isa.OpMov {
		v, err := readB(in.Src)
		if err != nil {
			return err
		}
		return writeB(in.Dst, v)
	}
	a, err := readB(in.Dst)
	if err != nil {
		return err
	}
	b, err := readB(in.Src)
	if err != nil {
		return err
	}
	var r uint32
	switch in.Op {
	case isa.OpAdd:
		r = (a + b) & 0xFF
	case isa.OpSub, isa.OpCmp:
		r = (a - b) & 0xFF
		m.Flags.C = a < b
	case isa.OpAnd:
		r = a & b
	case isa.OpOr:
		r = a | b
	case isa.OpXor:
		r = a ^ b
	default:
		return fmt.Errorf("machine: unsupported byte op %s", in.Op)
	}
	m.Flags.Z = r == 0
	m.Flags.S = r&0x80 != 0
	if in.Op == isa.OpCmp {
		return nil
	}
	return writeB(in.Dst, r)
}

func (m *Machine) alu(in *isa.Inst) error {
	var a, b uint32
	var err error
	if in.ThreeOperand() {
		if a, err = m.readOpd(in.Src2); err != nil {
			return err
		}
	} else {
		if a, err = m.readOpd(in.Dst); err != nil {
			return err
		}
	}
	if b, err = m.readOpd(in.Src); err != nil {
		return err
	}
	if in.Op == isa.OpDiv {
		if b == 0 {
			return ErrDivZero
		}
		if in.ISA == isa.X86 {
			// x86 form: eax = eax/b, edx = eax%b.
			q, rem := a/b, a%b
			m.Regs[isa.EAX] = q
			m.Regs[isa.EDX] = rem
			return nil
		}
		return m.writeOpd(in.Dst, a/b)
	}
	return m.writeOpd(in.Dst, m.aluOp(in.Op, a, b))
}

// aluOp is the shared ALU arm: it computes op(a, b) and applies the op's
// flag semantics. Both the generic interpreter switch and the fused exec
// arms funnel through it, so the two dispatch paths cannot drift. Div is
// handled by the caller (the x86 form writes a register pair and can
// fault).
func (m *Machine) aluOp(op isa.Op, a, b uint32) uint32 {
	var r uint32
	switch op {
	case isa.OpAdd:
		r = a + b
		m.Flags.C = r < a
		m.Flags.O = (int32(a) < 0) == (int32(b) < 0) && (int32(r) < 0) != (int32(a) < 0)
		m.setZS(r)
	case isa.OpSub:
		r = a - b
		m.cmpFlags(a, b)
	case isa.OpRsb:
		r = b - a
		m.cmpFlags(b, a)
	case isa.OpAnd:
		r = a & b
		m.setZS(r)
		m.Flags.C, m.Flags.O = false, false
	case isa.OpOr:
		r = a | b
		m.setZS(r)
		m.Flags.C, m.Flags.O = false, false
	case isa.OpXor:
		r = a ^ b
		m.setZS(r)
		m.Flags.C, m.Flags.O = false, false
	case isa.OpShl:
		r = a << (b & 31)
		m.setZS(r)
	case isa.OpShr:
		r = a >> (b & 31)
		m.setZS(r)
	case isa.OpMul:
		r = a * b
	}
	return r
}
