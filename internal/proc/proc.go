// Package proc boots fat-binary programs on a simulated core and provides
// the shared syscall environment. It is the "native execution" baseline:
// no PSR, no DBT — the program's own text section runs directly. The PSR
// virtual machine (package dbt) reuses the same bootstrap and syscall
// conventions.
package proc

import (
	"errors"
	"fmt"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
)

// ExitAddr is the sentinel return address installed under main: returning
// to it terminates the process.
const ExitAddr = 0xFFFFFFF0

// Syscall numbers of the simulated kernel ABI, whose vector and registers
// isa defines (isa.SyscallVector, isa.RetReg, isa.SyscallArgRegs).
const (
	SysExit   = 1
	SysWrite  = 4  // record args[0] in the process trace
	SysExecve = 11 // the classic shellcode target
	SysGetPID = 20
)

// DefaultStackSize is the stack mapping created for a process.
const DefaultStackSize = 1 << 20

// DefaultHeapSize is the heap mapping created for a process.
const DefaultHeapSize = 1 << 20

// ExecveEvent records a successful execve: the attack-success signal in
// the security evaluation.
type ExecveEvent struct {
	PathPtr uint32
	ArgvPtr uint32
	EnvpPtr uint32
}

// Process is a program instance executing on one core.
type Process struct {
	Bin *fatbin.Binary
	Mem *mem.Memory
	M   *machine.Machine

	Trace    []uint32 // values written via SysWrite
	Exited   bool
	ExitCode uint32
	Execves  []ExecveEvent

	// OnControl chains an extra hook (the DBT installs its own; native
	// processes leave it nil).
	extraControl machine.ControlHook
}

// New boots bin for native execution on ISA k.
func New(bin *fatbin.Binary, k isa.Kind) (*Process, error) {
	if bin.Func(bin.EntryFunc) == nil {
		return nil, fmt.Errorf("proc: no entry function %q", bin.EntryFunc)
	}
	ram := mem.New()
	bin.Load(ram, DefaultStackSize, DefaultHeapSize)
	p := Adopt(bin, machine.State{ISA: k}, ram)
	p.Reset(k)
	return p, nil
}

// Adopt wraps an already-populated address space and machine state as a
// Process, skipping the O(image) bin.Load of New. The snapshot/fork
// fast path uses it: ram is a copy-on-write fork of a booted (and possibly
// long-running) process image, st the register state to continue from.
// Trace/Exited/Execves start empty; the caller restores them when forking
// mid-run state rather than a pristine boot.
func Adopt(bin *fatbin.Binary, st machine.State, ram *mem.Memory) *Process {
	m := machine.New(st.ISA, ram)
	m.State = st
	p := &Process{Bin: bin, Mem: ram, M: m}
	m.Syscall = p.handleSyscall
	m.OnControl = p.handleControl
	return p
}

// Reset rewinds the machine to the program entry on ISA k without
// reloading memory. (Memory mutations from a previous run persist; use a
// fresh process for pristine state.)
func (p *Process) Reset(k isa.Kind) {
	entryFn := p.Bin.Func(p.Bin.EntryFunc)
	p.M.State = machine.State{ISA: k}
	p.M.PC = entryFn.Entry[k]
	p.M.SetSP(fatbin.StackTop - 64)
	// The bootstrap "caller" returns to the exit sentinel.
	if err := p.M.SaveRetAddr(ExitAddr); err != nil {
		panic(fmt.Sprintf("proc: bootstrap stack unmapped: %v", err))
	}
	p.Exited = false
}

// SetControlHook chains an additional control hook ahead of the exit
// detection (used by the DBT layer).
func (p *Process) SetControlHook(h machine.ControlHook) { p.extraControl = h }

func (p *Process) handleControl(m *machine.Machine, in *isa.Inst, kind machine.ControlKind, target, retAddr uint32) (uint32, uint32, error) {
	if p.extraControl != nil {
		var err error
		target, retAddr, err = p.extraControl(m, in, kind, target, retAddr)
		if err != nil {
			return target, retAddr, err
		}
	}
	if kind == machine.CtlRet && target == ExitAddr {
		m.Halted = true
		p.Exited = true
		p.ExitCode = m.Regs[isa.RetReg(m.ISA)]
		// Park the PC on the sentinel; the machine stops before fetching.
		return target, retAddr, nil
	}
	return target, retAddr, nil
}

func (p *Process) handleSyscall(m *machine.Machine, vector int32) error {
	if vector != isa.SyscallVector {
		return fmt.Errorf("proc: unknown syscall vector %#x", vector)
	}
	ret := isa.RetReg(m.ISA)
	num := m.Regs[ret]
	var args [5]uint32
	for i, r := range isa.SyscallArgRegs(m.ISA) {
		args[i] = m.Regs[r]
	}
	switch num {
	case SysExit:
		m.Halted = true
		p.Exited = true
		p.ExitCode = args[0]
	case SysWrite:
		p.Trace = append(p.Trace, args[0])
		m.Regs[ret] = 4
	case SysExecve:
		p.Execves = append(p.Execves, ExecveEvent{PathPtr: args[0], ArgvPtr: args[1], EnvpPtr: args[2]})
		m.Regs[ret] = 0
	case SysGetPID:
		m.Regs[ret] = 42
	default:
		return fmt.Errorf("proc: unknown syscall %d", num)
	}
	return nil
}

// Run executes up to maxSteps instructions, stopping at exit.
func (p *Process) Run(maxSteps uint64) (uint64, error) {
	n, err := p.M.Run(maxSteps)
	if err != nil && errors.Is(err, machine.ErrHalted) {
		err = nil
	}
	return n, err
}

// RunToExit runs until the program exits, failing if it does not within
// maxSteps.
func (p *Process) RunToExit(maxSteps uint64) error {
	if _, err := p.Run(maxSteps); err != nil {
		return err
	}
	if !p.Exited && !p.M.Halted {
		return fmt.Errorf("proc: program did not exit within %d steps", maxSteps)
	}
	return nil
}
