// Package profiler implements a guest-cycle sampling profiler for the
// HIPStR VM: it decorates the machine's timing observer, samples execution
// about every N guest instructions, and attributes the simulated cycles
// accumulated between samples (from the perf timing model when one is
// bound, raw instruction counts otherwise) to guest code regions — per
// basic block and per function of the fat binary's extended symbol table.
//
// Execution inside a PSR code cache is mapped back to guest source
// addresses through a resolver (dbt.VM.ResolvePCClass), so translated code,
// trap stubs, and chained superblocks all charge the guest function they
// were translated from — the paper's evaluation (§6-7) reports per-region
// PSR overhead, which end-to-end totals cannot attribute.
//
// Beyond sampled guest cycles (the "interpret" phase), the profiler taps
// the event tracer for the two VM phases with explicit costs: translation
// latency (EvTranslate, microseconds) and migration cost (EvMigrateEnd,
// microseconds). Reports export a top-N hot-block table, a JSON summary,
// and folded flamegraph stacks in the same "frame;frame;frame weight"
// format cmd/tracestat -folded emits.
//
// The profiler is strictly pay-for-what-you-use: nothing is attached to
// the machine until Attach is called. Attached, it rides the timing
// interface the machine already drives, so fused blocks keep their batched
// dispatch and the sampling fast path is one counter add and compare per
// block commit. Samples therefore land on the first instruction or block
// boundary at or after each interval.
package profiler

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/perf"
	"hipstr/internal/telemetry"
)

// DefaultInterval is the sampling period in guest instructions.
const DefaultInterval = 64

// ClassResolver maps an executing PC on ISA k to the guest source address
// it executes on behalf of (identity for native text, unit-source for code
// caches) and classifies it: stub reports that it falls inside a
// translation unit's trap-stub region, i.e. the sample caught VM-dispatch
// overhead rather than translated guest code. ok is false when the PC
// belongs to no guest code (dbt.VM.ResolvePCClass).
type ClassResolver func(k isa.Kind, pc uint32) (src uint32, stub, ok bool)

// blockKey aggregates samples per guest basic block.
type blockKey struct {
	k    isa.Kind
	fn   int32 // index into bin.Funcs; -1 = unsymbolized
	bb   int32 // BlockMeta.ID within the function; -1 = unknown block
	stub bool  // sample hit a trap stub (VM dispatch overhead)
}

// phaseKey aggregates traced phase costs (translate) per guest function.
type phaseKey struct {
	k  isa.Kind
	fn int32
}

type agg struct {
	cost    float64
	samples uint64
}

// Profiler is a sampling guest-cycle profiler. Attach it to at most one
// machine; sampling runs on that machine's goroutine, while reports may be
// taken from any goroutine (the observability server serves them live).
type Profiler struct {
	interval uint64
	pending  uint64      // instructions since the last sample (VM goroutine only)
	model    *perf.Model // cycle source bound by BindModel; nil counts instructions
	last     float64     // model.Cycles at the last sample
	bin      *fatbin.Binary
	resolve  ClassResolver

	mu        sync.Mutex
	buckets   map[blockKey]*agg
	translate map[phaseKey]*agg
	migrate   map[isa.Kind]*agg
	samples   uint64
	instrs    uint64
	total     float64 // cycles attributed via sampling
	unattr    float64 // cycles whose sample failed to symbolize
}

// New returns a profiler symbolizing against bin, sampling every interval
// guest instructions (<= 0 selects DefaultInterval).
func New(bin *fatbin.Binary, interval uint64) *Profiler {
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Profiler{
		interval:  interval,
		bin:       bin,
		buckets:   make(map[blockKey]*agg),
		translate: make(map[phaseKey]*agg),
		migrate:   make(map[isa.Kind]*agg),
	}
}

// Interval returns the sampling period in guest instructions.
func (p *Profiler) Interval() uint64 { return p.interval }

// SetClassResolver installs the execution-PC → guest-source mapping, which
// also splits sampled cycles between translated guest code and VM
// dispatch overhead (trap stubs). The PSR drivers wire
// dbt.VM.ResolvePCClass; native execution needs none (text PCs symbolize
// directly).
func (p *Profiler) SetClassResolver(r ClassResolver) { p.resolve = r }

// BindModel attributes the timing model's simulated cycles instead of raw
// instruction counts: a sample costs the cycles mo charged since the
// previous one. Without a model, each instruction costs one cycle. Attach
// the model to the machine *before* the profiler so every sample sees the
// cycles already charged for the sampled instruction.
func (p *Profiler) BindModel(mo *perf.Model) {
	p.model = mo
	if mo != nil {
		p.last = mo.Cycles
	}
}

// Attach wraps m's timing observer (a perf.Model, or none) in the
// profiler's sampler. Attach after any timing model: the sampler forwards
// each commit to the model before counting, so samples observe
// post-charge cycle counts.
func (p *Profiler) Attach(m *machine.Machine) {
	m.Timing = &sampler{p: p, next: m.Timing}
}

// sampler is the machine.Timing decorator Attach installs. It forwards
// every commit to the wrapped model unchanged, then counts the
// instructions the commit covered and samples once the interval has
// elapsed.
type sampler struct {
	p    *Profiler
	next machine.Timing
}

func (s *sampler) CommitBlock(m *machine.Machine, insts []isa.Inst, bt *isa.BlockTiming, eas []uint32) {
	if s.next != nil {
		s.next.CommitBlock(m, insts, bt, eas)
	}
	p := s.p
	before := p.pending
	p.pending += uint64(len(insts))
	if p.pending >= p.interval {
		// The sample's PC is the instruction at which the interval
		// elapsed, so PCs are still sampled in proportion to how often
		// they execute; only the cost boundary moves to the block commit.
		p.sample(m.ISA, insts[p.interval-before-1].Addr)
	}
}

// AttachTracer taps t's event stream for the costed VM phases (translate,
// migrate) so reports break those out alongside sampled guest cycles.
func (p *Profiler) AttachTracer(t *telemetry.Telemetry) {
	if t == nil || t.Trace == nil {
		return
	}
	t.Trace.AddSink(p)
}

// BindTelemetry publishes the profiler's own meters through t: sample and
// instruction counters plus the attribution ratio, refreshed at snapshot
// time. Safe from any goroutine (the profiler carries its own lock).
func (p *Profiler) BindTelemetry(t *telemetry.Telemetry) {
	if t == nil || t.Reg == nil {
		return
	}
	r := t.Reg
	r.RegisterCollector(func() {
		p.mu.Lock()
		samples, instrs, total, unattr := p.samples, p.instrs, p.total, p.unattr
		p.mu.Unlock()
		r.Counter("profiler.samples").Set(samples)
		r.Counter("profiler.instructions").Set(instrs)
		r.Gauge("profiler.cycles").Set(total)
		ratio := 0.0
		if total > 0 {
			ratio = (total - unattr) / total
		}
		r.Gauge("profiler.attributed_ratio").Set(ratio)
	})
}

// sample charges the cycles accumulated since the previous sample to the
// guest region owning pc. Runs on the machine goroutine; resolution (which
// reads VM state) happens before taking the aggregation lock.
func (p *Profiler) sample(k isa.Kind, pc uint32) {
	cost := float64(p.pending)
	if p.model != nil {
		c := p.model.Cycles
		cost = c - p.last
		p.last = c
	}
	n := p.pending
	p.pending = 0

	src, stub, ok := pc, false, true
	if p.resolve != nil {
		src, stub, ok = p.resolve(k, pc)
	}
	key := blockKey{k: k, fn: -1, bb: -1, stub: stub}
	if ok && p.bin != nil {
		if fn, blk := p.bin.BlockAt(k, src); fn != nil {
			key.fn = int32(fn.Index)
			if blk != nil {
				key.bb = int32(blk.ID)
			}
		}
	}

	p.mu.Lock()
	p.samples++
	p.instrs += n
	p.total += cost
	if key.fn < 0 {
		p.unattr += cost
	}
	a := p.buckets[key]
	if a == nil {
		a = &agg{}
		p.buckets[key] = a
	}
	a.cost += cost
	a.samples++
	p.mu.Unlock()
}

// Emit implements telemetry.Sink: translation and migration events carry
// explicit costs (microseconds) that the sampler cannot see, so they are
// accounted as their own phases.
func (p *Profiler) Emit(e telemetry.Event) {
	switch e.Type {
	case telemetry.EvTranslate:
		k, ok := kindOf(e.ISA)
		if !ok {
			return
		}
		fn := int32(-1)
		if p.bin != nil {
			if f := p.bin.FuncAt(k, e.Addr); f != nil {
				fn = int32(f.Index)
			}
		}
		p.mu.Lock()
		key := phaseKey{k: k, fn: fn}
		a := p.translate[key]
		if a == nil {
			a = &agg{}
			p.translate[key] = a
		}
		a.cost += e.Cost
		a.samples++
		p.mu.Unlock()
	case telemetry.EvMigrateEnd:
		if e.Cost <= 0 {
			return // refusals carry no cost
		}
		k, ok := kindOf(e.ISA)
		if !ok {
			return
		}
		p.mu.Lock()
		a := p.migrate[k]
		if a == nil {
			a = &agg{}
			p.migrate[k] = a
		}
		a.cost += e.Cost
		a.samples++
		p.mu.Unlock()
	}
}

func kindOf(s string) (isa.Kind, bool) {
	for _, k := range isa.Kinds {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// BlockProfile is one guest basic block's sampled cost.
type BlockProfile struct {
	ISA   string `json:"isa"`
	Func  string `json:"func"`
	Block int    `json:"block"` // BlockMeta.ID; -1 = unknown
	Addr  uint32 `json:"addr"`  // guest block start (0 when unknown)
	// Dispatch marks cycles sampled inside trap stubs: VM dispatch
	// overhead attributed to the unit's guest block rather than the
	// block's own translated code.
	Dispatch bool    `json:"dispatch,omitempty"`
	Cycles   float64 `json:"cycles"`
	Samples  uint64  `json:"samples"`
}

// FuncProfile is one guest function's sampled cost across both ISAs.
type FuncProfile struct {
	Func    string  `json:"func"`
	Cycles  float64 `json:"cycles"`
	Samples uint64  `json:"samples"`
	Share   float64 `json:"share"` // fraction of total sampled cycles
}

// PhaseCost is one traced VM-phase aggregate (cost in microseconds).
type PhaseCost struct {
	Phase  string  `json:"phase"`
	ISA    string  `json:"isa"`
	Func   string  `json:"func,omitempty"`
	Count  uint64  `json:"count"`
	CostUS float64 `json:"cost_us"`
}

// Report is a point-in-time profile summary.
type Report struct {
	Interval         uint64         `json:"interval"`
	Instructions     uint64         `json:"instructions"`
	Samples          uint64         `json:"samples"`
	TotalCycles      float64        `json:"total_cycles"`
	AttributedCycles float64        `json:"attributed_cycles"`
	AttributedRatio  float64        `json:"attributed_ratio"`
	Funcs            []FuncProfile  `json:"funcs"`
	Blocks           []BlockProfile `json:"blocks"`
	Phases           []PhaseCost    `json:"phases,omitempty"`
}

const unknownFunc = "(unknown)"

func (p *Profiler) funcName(fn int32) string {
	if fn < 0 || p.bin == nil || int(fn) >= len(p.bin.Funcs) {
		return unknownFunc
	}
	return p.bin.Funcs[fn].Name
}

// Report builds the current profile. Safe from any goroutine.
func (p *Profiler) Report() Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := Report{
		Interval:         p.interval,
		Instructions:     p.instrs,
		Samples:          p.samples,
		TotalCycles:      p.total,
		AttributedCycles: p.total - p.unattr,
	}
	if r.TotalCycles > 0 {
		r.AttributedRatio = r.AttributedCycles / r.TotalCycles
	}
	byFunc := make(map[string]*FuncProfile)
	for key, a := range p.buckets {
		name := p.funcName(key.fn)
		bp := BlockProfile{
			ISA:      key.k.String(),
			Func:     name,
			Block:    int(key.bb),
			Dispatch: key.stub,
			Cycles:   a.cost,
			Samples:  a.samples,
		}
		if key.fn >= 0 && key.bb >= 0 {
			if bm := p.bin.Funcs[key.fn].BlockByID(int(key.bb)); bm != nil {
				bp.Addr = bm.Addr[key.k]
			}
		}
		r.Blocks = append(r.Blocks, bp)
		fp := byFunc[name]
		if fp == nil {
			fp = &FuncProfile{Func: name}
			byFunc[name] = fp
		}
		fp.Cycles += a.cost
		fp.Samples += a.samples
	}
	for _, fp := range byFunc {
		if r.TotalCycles > 0 {
			fp.Share = fp.Cycles / r.TotalCycles
		}
		r.Funcs = append(r.Funcs, *fp)
	}
	sort.Slice(r.Funcs, func(i, j int) bool {
		if r.Funcs[i].Cycles != r.Funcs[j].Cycles {
			return r.Funcs[i].Cycles > r.Funcs[j].Cycles
		}
		return r.Funcs[i].Func < r.Funcs[j].Func
	})
	sort.Slice(r.Blocks, func(i, j int) bool {
		a, b := r.Blocks[i], r.Blocks[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.ISA != b.ISA {
			return a.ISA < b.ISA
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return !a.Dispatch && b.Dispatch
	})
	for key, a := range p.translate {
		r.Phases = append(r.Phases, PhaseCost{
			Phase: "translate", ISA: key.k.String(), Func: p.funcName(key.fn),
			Count: a.samples, CostUS: a.cost,
		})
	}
	for k, a := range p.migrate {
		r.Phases = append(r.Phases, PhaseCost{
			Phase: "migrate", ISA: k.String(), Count: a.samples, CostUS: a.cost,
		})
	}
	sort.Slice(r.Phases, func(i, j int) bool {
		a, b := r.Phases[i], r.Phases[j]
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.ISA < b.ISA
	})
	return r
}

// foldedWeight follows tracestat's rule: the rounded-up cost, falling back
// to the sample count so cost-less aggregates still appear.
func foldedWeight(cost float64, count uint64) uint64 {
	w := uint64(math.Ceil(cost))
	if w == 0 {
		w = count
	}
	return w
}

// WriteFolded writes flamegraph folded stacks, one per aggregate, in the
// same "frame;frame;... weight" format cmd/tracestat -folded emits, sorted
// by stack name for deterministic output. Sampled guest cycles appear
// under the "interpret" phase as interpret;<func>;<isa>;block<N>, except
// cycles sampled inside trap stubs, which appear under "vm-dispatch" with
// the same sub-stack; traced translation and migration costs (whose
// weights are microseconds, the tracer's native unit for those events)
// appear under "translate" and "migrate".
func (r Report) WriteFolded(w io.Writer) error {
	lines := make([]string, 0, len(r.Blocks)+len(r.Phases))
	for _, b := range r.Blocks {
		blk := fmt.Sprintf("block%d", b.Block)
		if b.Block < 0 {
			blk = "block?"
		}
		phase := "interpret"
		if b.Dispatch {
			phase = "vm-dispatch"
		}
		lines = append(lines, fmt.Sprintf("%s;%s;%s;%s %d",
			phase, b.Func, b.ISA, blk, foldedWeight(b.Cycles, b.Samples)))
	}
	for _, ph := range r.Phases {
		fn := ph.Func
		if fn == "" {
			fn = "(migration)"
		}
		lines = append(lines, fmt.Sprintf("%s;%s;%s %d",
			ph.Phase, fn, ph.ISA, foldedWeight(ph.CostUS, ph.Count)))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// WriteTop writes the top-n hot-block table (n <= 0 means all blocks) with
// cumulative share of total sampled cycles.
func (r Report) WriteTop(w io.Writer, n int) error {
	if n <= 0 || n > len(r.Blocks) {
		n = len(r.Blocks)
	}
	if _, err := fmt.Fprintf(w, "%d samples, %.0f cycles over %d instructions (%.1f%% attributed)\n\n",
		r.Samples, r.TotalCycles, r.Instructions, 100*r.AttributedRatio); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%4s %-4s %-24s %6s %10s %14s %7s %7s\n",
		"#", "isa", "func", "block", "samples", "cycles", "self%", "cum%"); err != nil {
		return err
	}
	var cum float64
	for i := 0; i < n; i++ {
		b := r.Blocks[i]
		cum += b.Cycles
		self, cumPct := 0.0, 0.0
		if r.TotalCycles > 0 {
			self = 100 * b.Cycles / r.TotalCycles
			cumPct = 100 * cum / r.TotalCycles
		}
		if _, err := fmt.Fprintf(w, "%4d %-4s %-24s %6d %10d %14.0f %6.2f%% %6.2f%%\n",
			i+1, b.ISA, b.Func, b.Block, b.Samples, b.Cycles, self, cumPct); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
