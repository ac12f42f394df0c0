package perf

import (
	"fmt"

	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/proc"
	"hipstr/internal/telemetry"
)

// Measurement is a work-normalized timing result: cycles spent between two
// progress boundaries of the workload (the SysWrite markers every
// benchmark's outer loop emits). Comparing measurements of the same
// boundaries under different execution modes yields relative performance
// independent of how many machine instructions each mode needed.
type Measurement struct {
	Core    string
	Cycles  float64
	Instrs  uint64
	CPI     float64
	Seconds float64
	Counts  Counts
}

const measureChunk = 500_000
const measureCap = 400_000_000

// MeasureNative runs bin natively on ISA k, warming through warmWrites
// progress markers and measuring through the next measureWrites.
func MeasureNative(bin *fatbin.Binary, k isa.Kind, warmWrites, measureWrites int) (Measurement, error) {
	p, err := proc.New(bin, k)
	if err != nil {
		return Measurement{}, err
	}
	model := NewModel(CoreFor(k))
	model.Attach(p.M)
	return measure(p, model, warmWrites, measureWrites, nil)
}

// MeasureVM runs bin under a PSR virtual machine on ISA k with the given
// configuration and measures the same work window. It also returns the VM
// event-counter delta across the measured window only (warmup events —
// compulsory translation — are excluded), for steady-state security-event
// rates.
func MeasureVM(bin *fatbin.Binary, k isa.Kind, cfg dbt.Config, warmWrites, measureWrites int) (Measurement, dbt.Stats, *dbt.VM, error) {
	vm, err := dbt.New(bin, k, cfg)
	if err != nil {
		return Measurement{}, dbt.Stats{}, nil, err
	}
	model := NewModel(CoreFor(k))
	model.RATEnabled = true
	model.Attach(vm.P.M)
	var atWarm dbt.Stats
	meas, err := measure(vm.P, model, warmWrites, measureWrites, func() { atWarm = vm.Stats })
	if err != nil {
		return Measurement{}, dbt.Stats{}, vm, err
	}
	delta := vm.Stats
	delta.CodeCacheMisses -= atWarm.CodeCacheMisses
	delta.SecurityEvents -= atWarm.SecurityEvents
	delta.ReturnMisses -= atWarm.ReturnMisses
	delta.CompulsoryMisses -= atWarm.CompulsoryMisses
	delta.Flushes -= atWarm.Flushes
	return meas, delta, vm, nil
}

// measure reads the model exactly at the progress-write boundaries by
// interposing on the syscall handler, so overshooting a boundary inside a
// run chunk cannot blur the window. atWarm, when non-nil, runs at the
// warm boundary, in the same handler call.
func measure(p *proc.Process, model *Model, warmWrites, measureWrites int, atWarm func()) (Measurement, error) {
	// reading is the model's state at one boundary; ok once it was read.
	type reading struct {
		cycles float64
		counts Counts
		ok     bool
	}
	target := warmWrites + measureWrites
	var start, end reading
	var phaseStart float64
	orig := p.M.Syscall
	p.M.Syscall = func(m *machine.Machine, vec int32) error {
		before := len(p.Trace)
		if err := orig(m, vec); err != nil {
			return err
		}
		n := len(p.Trace)
		if n == before {
			return nil
		}
		if n == warmWrites {
			start = reading{model.Cycles, model.Counts, true}
			if atWarm != nil {
				atWarm()
			}
		}
		if n == target {
			end = reading{model.Cycles, model.Counts, true}
		}
		// Per-phase cycle accounting: each progress write closes one
		// workload phase.
		if model.tel != nil {
			cyc := model.Cycles - phaseStart
			model.histPhase.Observe(cyc)
			model.tel.Emit(telemetry.Event{
				Type: telemetry.EvPhase, ISA: model.Core.Name, Cost: cyc,
				Detail: fmt.Sprintf("write %d", n),
			})
		}
		phaseStart = model.Cycles
		return nil
	}
	var total uint64
	for len(p.Trace) < target {
		if p.Exited {
			return Measurement{}, fmt.Errorf("perf: program exited after %d writes (want %d)", len(p.Trace), target)
		}
		ran, err := p.Run(measureChunk)
		if err != nil {
			return Measurement{}, err
		}
		total += ran
		if total > measureCap {
			return Measurement{}, fmt.Errorf("perf: exceeded %d instructions waiting for %d writes", measureCap, target)
		}
	}
	if !start.ok || !end.ok {
		return Measurement{}, fmt.Errorf("perf: missing boundary snapshots (%v/%v)", start.ok, end.ok)
	}
	cyc := end.cycles - start.cycles
	ins := end.counts.Instrs - start.counts.Instrs
	m := Measurement{
		Core:    model.Core.Name,
		Cycles:  cyc,
		Instrs:  ins,
		Seconds: cyc / (model.Core.FreqGHz * 1e9),
		Counts:  diffCounts(end.counts, start.counts),
	}
	if ins > 0 {
		m.CPI = cyc / float64(ins)
	}
	return m, nil
}

func diffCounts(a, b Counts) Counts {
	return Counts{
		Instrs:   a.Instrs - b.Instrs,
		Loads:    a.Loads - b.Loads,
		Stores:   a.Stores - b.Stores,
		Branches: a.Branches - b.Branches,
		Calls:    a.Calls - b.Calls,
		Returns:  a.Returns - b.Returns,
		MulDiv:   a.MulDiv - b.MulDiv,
	}
}

// Relative returns the performance of measured relative to baseline (1.0 =
// parity, lower = slower), comparing cycles for the same work window.
func Relative(baseline, measured Measurement) float64 {
	if measured.Cycles == 0 {
		return 0
	}
	return baseline.Cycles / measured.Cycles
}
