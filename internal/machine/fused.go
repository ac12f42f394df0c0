package machine

import (
	"fmt"

	"hipstr/internal/isa"
)

// This file is the batched fast path of Run: fused superinstruction
// dispatch with block-batched timing commits. Invariants the arms rely on
// (established by isa.FuseBlock and Run's budget check):
//
//   - The block's terminator, if any, is its final architectural
//     instruction, so only the last fused entry can transfer control,
//     halt, or invoke hooks. Body entries at most fault or store.
//   - The last fused entry is a single instruction or a cmp+jcc pair;
//     data pairs never cover the block's final instruction.
//   - m.PC may go stale inside the block (nothing reads it mid-block
//     without hooks attached); every arm leaves it correct after its
//     entry, and fault paths pin it to the faulting instruction's address
//     so errors look exactly like Step's.
//   - Specialized arms pre-mask register indices to 4 bits at fuse time;
//     the &0xF here only re-establishes the bound for the compiler.
//
// Timing protocol: while a Timing model is attached, body arms log each
// instruction's dynamic effective addresses (layout defined by
// isa.Op.StackAccess), and the final instruction's are logged from
// pre-execution state just before the commit, so every CommitBlock covers
// a fully logged range. The whole block's accounting is committed in one
// CommitBlock immediately before the final architectural instruction
// executes, so anything a terminator's hooks read from the model —
// measurement boundaries read inside syscall handlers, span cycle
// sources — observes exactly the value Step would have shown. Early exits
// (faults, self-modifying-code evictions) commit the executed prefix at
// the exit point.

// logInstEAs records one instruction's dynamic addresses from its
// pre-execution state: src EA, dst EA, then pre-exec SP, each when
// applicable. The generic arm and a block's final instruction log
// through it, and so does Step, so a single-stepped instruction reaches
// the timing model exactly as a fused block's instructions do.
func (m *Machine) logInstEAs(in *isa.Inst) {
	if in.Src.Kind == isa.OpdMem {
		m.eaLog[m.eaN] = m.ea(in.Src.Mem)
		m.eaN++
	}
	if in.Dst.Kind == isa.OpdMem {
		m.eaLog[m.eaN] = m.ea(in.Dst.Mem)
		m.eaN++
	}
	if in.Op.StackAccess() {
		m.eaLog[m.eaN] = m.SP()
		m.eaN++
	}
}

// fusedFault pins the PC to the faulting instruction and wraps the error
// exactly as Step does, so callers cannot tell which path faulted.
func (m *Machine) fusedFault(in *isa.Inst, err error) error {
	m.PC = in.Addr
	return fmt.Errorf("machine: at %#x (%s): %w", in.Addr, in.Op, err)
}

// runFused executes one predecoded block through the fused arms. The
// caller guarantees the step budget covers the block.
func (m *Machine) runFused(blk *Block) error {
	bc := &m.blocks
	insts := blk.Insts
	fused := blk.Fused
	logOn := m.Timing != nil
	if logOn {
		m.eaN = 0
		m.logEA = true
	}
	startPC := m.PC
	logBase := 0 // first architectural instruction not yet committed
	done := 0    // architectural instructions executed so far
	last := len(fused) - 1
	for i := 0; i < last; i++ {
		f := &fused[i]
		n, wrote, err := m.execFusedBody(f, insts)
		done += n
		if err != nil {
			if logOn {
				m.logEA = false
				m.commitTiming(blk, logBase, done)
			}
			return err
		}
		if wrote {
			if g := m.Mem.CodeGen(); g != bc.gen {
				// The write barrier fired: commit the executed prefix
				// (span cycle sources read the model during reconcile),
				// then reconcile. If this block was evicted, return with
				// the PC at the next instruction — the same latency the
				// per-instruction poll gave self-modifying code.
				if logOn {
					m.commitTiming(blk, logBase, done)
					logBase = done
					m.eaN = 0
				}
				m.reconcileSpanned(bc, g)
				if !bc.alive(m.ISA, startPC, blk) {
					m.logEA = false
					return nil
				}
			}
		}
	}

	// Final entry: commit the block's timing before its last
	// architectural instruction executes (hooks it fires must see the
	// committed model), then execute it.
	f := &fused[last]
	switch f.Code {
	case isa.FCmpJccRI, isa.FCmpJccRR:
		// The compare executes first: it is register-only and the jcc
		// has no effective addresses, so committing after the compare is
		// still exact (their accounting depends only on static fields).
		b := uint32(f.Imm)
		if f.Code == isa.FCmpJccRR {
			b = m.Regs[f.R2&0xF]
		}
		m.cmpFlags(m.Regs[f.R1&0xF], b)
		m.Steps += 2
		if logOn {
			m.logEA = false
			m.commitTiming(blk, logBase, len(insts))
		}
		if m.Flags.Eval(f.Cond) {
			jin := &insts[f.B]
			tgt, _, err := m.control(jin, CtlJcc, f.Target, 0)
			if err != nil {
				return m.fusedFault(jin, err)
			}
			m.PC = tgt
			return nil
		}
		m.PC = f.Next
		return nil
	}
	if logOn {
		m.logEA = false
		m.logInstEAs(&insts[f.A])
		m.commitTiming(blk, logBase, len(insts))
	}
	_, _, err := m.execFusedBody(f, insts)
	return err
}

// commitTiming commits the accounting of blk's instructions [from, to),
// whose effective addresses are all in the log. A commit of the whole
// block hands the model the block's timing summary, built on the first
// such commit (raw dispatch never builds one); prefix and suffix commits
// pass nil.
func (m *Machine) commitTiming(blk *Block, from, to int) {
	bc := &m.blocks
	bc.commits++
	var bt *isa.BlockTiming
	if from == 0 && to == len(blk.Insts) {
		if blk.timing == nil {
			blk.timing = bc.summarize(blk.Insts)
		}
		bt = blk.timing
	}
	m.Timing.CommitBlock(m, blk.Insts[from:to], bt, m.eaLog[:m.eaN])
}

// execFusedBody executes one fused entry and reports how many
// architectural instructions it retired and whether it may have written
// memory (requiring a code-generation poll). Terminator instructions only
// ever reach the FGeneric arm, and only as a block's final entry.
func (m *Machine) execFusedBody(f *isa.FusedInst, insts []isa.Inst) (int, bool, error) {
	switch f.Code {
	case isa.FMovRI:
		m.Steps++
		m.Regs[f.R1&0xF] = uint32(f.Imm)
		m.PC = f.Next
		return 1, false, nil
	case isa.FMovRR:
		m.Steps++
		m.Regs[f.R1&0xF] = m.Regs[f.R2&0xF]
		m.PC = f.Next
		return 1, false, nil
	case isa.FMovRM:
		m.Steps++
		ea := m.Regs[f.R2&0xF] + uint32(f.Imm)
		if m.logEA {
			m.eaLog[m.eaN] = ea
			m.eaN++
		}
		v, err := m.Mem.ReadWord(ea)
		if err != nil {
			return 1, false, m.fusedFault(&insts[f.A], err)
		}
		m.Regs[f.R1&0xF] = v
		m.PC = f.Next
		return 1, false, nil
	case isa.FMovMR:
		m.Steps++
		ea := m.Regs[f.R2&0xF] + uint32(f.Imm)
		if m.logEA {
			m.eaLog[m.eaN] = ea
			m.eaN++
		}
		if err := m.Mem.WriteWord(ea, m.Regs[f.R1&0xF]); err != nil {
			return 1, false, m.fusedFault(&insts[f.A], err)
		}
		m.PC = f.Next
		return 1, true, nil
	case isa.FLeaRM:
		m.Steps++
		ea := m.Regs[f.R2&0xF] + uint32(f.Imm)
		if m.logEA {
			m.eaLog[m.eaN] = ea
			m.eaN++
		}
		m.Regs[f.R1&0xF] = ea
		m.PC = f.Next
		return 1, false, nil
	case isa.FAluRI:
		m.Steps++
		r := f.R1 & 0xF
		m.Regs[r] = m.aluOp(f.Op, m.Regs[r], uint32(f.Imm))
		m.PC = f.Next
		return 1, false, nil
	case isa.FAluRR:
		m.Steps++
		r := f.R1 & 0xF
		m.Regs[r] = m.aluOp(f.Op, m.Regs[r], m.Regs[f.R2&0xF])
		m.PC = f.Next
		return 1, false, nil
	case isa.FAlu3RI:
		m.Steps++
		m.Regs[f.R1&0xF] = m.aluOp(f.Op, m.Regs[f.R2&0xF], uint32(f.Imm))
		m.PC = f.Next
		return 1, false, nil
	case isa.FAlu3RR:
		m.Steps++
		m.Regs[f.R1&0xF] = m.aluOp(f.Op, m.Regs[f.R2&0xF], m.Regs[f.R3&0xF])
		m.PC = f.Next
		return 1, false, nil
	case isa.FIncDec:
		m.Steps++
		v := m.Regs[f.R1&0xF]
		if f.Op == isa.OpInc {
			v++
		} else {
			v--
		}
		m.setZS(v)
		m.Regs[f.R1&0xF] = v
		m.PC = f.Next
		return 1, false, nil
	case isa.FCmpRI:
		m.Steps++
		m.cmpFlags(m.Regs[f.R1&0xF], uint32(f.Imm))
		m.PC = f.Next
		return 1, false, nil
	case isa.FCmpRR:
		m.Steps++
		m.cmpFlags(m.Regs[f.R1&0xF], m.Regs[f.R2&0xF])
		m.PC = f.Next
		return 1, false, nil
	case isa.FPushR, isa.FPushI:
		m.Steps++
		v := uint32(f.Imm)
		if f.Code == isa.FPushR {
			v = m.Regs[f.R1&0xF]
		}
		sp0 := m.SP()
		if m.logEA {
			m.eaLog[m.eaN] = sp0
			m.eaN++
		}
		if err := m.Mem.WriteWord(sp0-4, v); err != nil {
			return 1, false, m.fusedFault(&insts[f.A], err)
		}
		m.SetSP(sp0 - 4)
		m.PC = f.Next
		return 1, true, nil
	case isa.FPopR:
		m.Steps++
		sp0 := m.SP()
		if m.logEA {
			m.eaLog[m.eaN] = sp0
			m.eaN++
		}
		v, err := m.Mem.ReadWord(sp0)
		if err != nil {
			return 1, false, m.fusedFault(&insts[f.A], err)
		}
		m.SetSP(sp0 + 4)
		m.Regs[f.R1&0xF] = v
		m.PC = f.Next
		return 1, false, nil

	case isa.FMovMov:
		m.Steps += 2
		va := uint32(f.Imm)
		if f.Sub&isa.FSubImmA == 0 {
			va = m.Regs[f.R2&0xF]
		}
		m.Regs[f.R1&0xF] = va
		vb := uint32(f.Imm2)
		if f.Sub&isa.FSubImmB == 0 {
			vb = m.Regs[f.R4&0xF]
		}
		m.Regs[f.R3&0xF] = vb
		m.PC = f.Next
		return 2, false, nil
	case isa.FLoadAlu:
		m.Steps++
		ea := m.Regs[f.R2&0xF] + uint32(f.Imm)
		if m.logEA {
			m.eaLog[m.eaN] = ea
			m.eaN++
		}
		v, err := m.Mem.ReadWord(ea)
		if err != nil {
			return 1, false, m.fusedFault(&insts[f.A], err)
		}
		m.Regs[f.R1&0xF] = v
		m.Steps++
		a := m.Regs[f.R3&0xF]
		if f.Sub&isa.FSubAlu3 != 0 {
			a = m.Regs[f.R5&0xF]
		}
		b := uint32(f.Imm2)
		if f.Sub&isa.FSubAluImm == 0 {
			b = m.Regs[f.R4&0xF]
		}
		m.Regs[f.R3&0xF] = m.aluOp(f.Op, a, b)
		m.PC = f.Next
		return 2, false, nil
	case isa.FAluStore:
		m.Steps++
		a := m.Regs[f.R1&0xF]
		if f.Sub&isa.FSubAlu3 != 0 {
			a = m.Regs[f.R5&0xF]
		}
		b := uint32(f.Imm)
		if f.Sub&isa.FSubAluImm == 0 {
			b = m.Regs[f.R2&0xF]
		}
		m.Regs[f.R1&0xF] = m.aluOp(f.Op, a, b)
		m.Steps++
		ea := m.Regs[f.R3&0xF] + uint32(f.Imm2)
		if m.logEA {
			m.eaLog[m.eaN] = ea
			m.eaN++
		}
		if err := m.Mem.WriteWord(ea, m.Regs[f.R4&0xF]); err != nil {
			return 2, false, m.fusedFault(&insts[f.B], err)
		}
		m.PC = f.Next
		return 2, true, nil
	}

	// FGeneric (and, defensively, anything unrecognized): the full
	// interpreter arm. The PC already equals in.Addr on entry (every arm
	// restores it after its entry), and exec maintains it from here —
	// including its fault behavior, e.g. a failing syscall handler
	// observes the post-instruction PC. Wrapping without touching the PC
	// therefore matches Step exactly.
	in := &insts[f.A]
	if m.logEA {
		m.logInstEAs(in)
	}
	m.Steps++
	if err := m.exec(in); err != nil {
		return 1, true, fmt.Errorf("machine: at %#x (%s): %w", in.Addr, in.Op, err)
	}
	return 1, f.Sub&isa.FSubMayWrite != 0, nil
}
