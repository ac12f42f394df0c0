// Package perf implements the cycle-approximate timing model of the
// heterogeneous-ISA CMP: the two cores of Table 1 (a low-power in-order-ish
// ARM modeled after the Cortex-A9 and a high-performance x86 modeled after
// the Xeon), with set-associative instruction and data caches, a gshare
// branch predictor, functional-unit latencies whose exposure scales with
// ROB depth, and the 1-cycle Return Address Table lookup penalty of §5.1.
//
// The model attaches to a running machine as an execution observer and
// charges cycles per event. It is calibrated for *relative* comparisons
// (native vs PSR optimization levels, HIPStR vs Isomeron), which is what
// every performance figure in the paper reports.
package perf

import (
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/telemetry"
)

// CacheConfig describes one level-1 cache.
type CacheConfig struct {
	SizeKB  int
	Ways    int
	LineB   int
	HitLat  float64
	MissLat float64
}

// CoreConfig mirrors one row of Table 1.
type CoreConfig struct {
	Name       string
	FreqGHz    float64
	FetchWidth int
	IssueWidth int
	ROBSize    int
	LQSize     int
	SQSize     int
	IntALU     int
	IntMulDiv  int
	FPALU      int
	ICache     CacheConfig
	DCache     CacheConfig
	// MispredictPenalty is the pipeline refill cost in cycles.
	MispredictPenalty float64
	// RATLookup is the return-address-table translation penalty (§5.1).
	RATLookup float64
}

// ARMCore returns the Cortex-A9-like core of Table 1.
func ARMCore() CoreConfig {
	return CoreConfig{
		Name: "arm", FreqGHz: 2.0,
		FetchWidth: 2, IssueWidth: 4, ROBSize: 20,
		LQSize: 16, SQSize: 16,
		IntALU: 2, IntMulDiv: 1, FPALU: 2,
		ICache:            CacheConfig{SizeKB: 32, Ways: 2, LineB: 64, HitLat: 1, MissLat: 18},
		DCache:            CacheConfig{SizeKB: 32, Ways: 2, LineB: 64, HitLat: 2, MissLat: 20},
		MispredictPenalty: 9,
		RATLookup:         1,
	}
}

// X86Core returns the Xeon-like core of Table 1.
func X86Core() CoreConfig {
	return CoreConfig{
		Name: "x86", FreqGHz: 3.3,
		FetchWidth: 4, IssueWidth: 4, ROBSize: 128,
		LQSize: 48, SQSize: 96,
		IntALU: 6, IntMulDiv: 1, FPALU: 2,
		ICache:            CacheConfig{SizeKB: 32, Ways: 2, LineB: 64, HitLat: 1, MissLat: 16},
		DCache:            CacheConfig{SizeKB: 32, Ways: 2, LineB: 64, HitLat: 2, MissLat: 18},
		MispredictPenalty: 15,
		RATLookup:         1,
	}
}

// CoreFor returns the core model matching ISA k.
func CoreFor(k isa.Kind) CoreConfig {
	if k == isa.X86 {
		return X86Core()
	}
	return ARMCore()
}

// cacheSim is a set-associative cache with LRU replacement.
type cacheSim struct {
	cfg      CacheConfig
	sets     int
	setMask  int // sets-1 when sets is a power of two, else -1
	lineBits uint
	ways     int
	hitLat   float64 // cfg.HitLat, lifted so access stays inlineable
	// tags and lru are set-major flat arrays (sets*ways entries): one
	// bounds-checked slice per access instead of a per-set pointer chase.
	tags []uint32
	lru  []uint64
	tick uint64
	// lastLine/lastIdx memoize the most recently accessed line and its
	// flat-array slot. The last-touched way is always the set's newest, so
	// it can never be the LRU victim of an intervening miss — the memo is
	// stale-proof, and a repeated access applies the exact same effects
	// as the search loop would. Its LRU timestamp is written lazily:
	// memo hits bump only tick, and accessSlow flushes the final value
	// before any set search reads it, so observable LRU state is
	// unchanged (intermediate per-hit timestamps are never read).
	lastLine uint32
	lastIdx  int

	Misses uint64
}

// Hits returns how many accesses were cache hits. Every access is a hit
// or a miss and tick counts accesses, so the value is derived instead of
// being a third counter on the hot path.
func (c *cacheSim) Hits() uint64 { return c.tick - c.Misses }

func newCacheSim(cfg CacheConfig) *cacheSim {
	lines := cfg.SizeKB * 1024 / cfg.LineB
	sets := lines / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	lb := uint(0)
	for 1<<lb < cfg.LineB {
		lb++
	}
	c := &cacheSim{cfg: cfg, sets: sets, setMask: -1, lineBits: lb, ways: cfg.Ways, hitLat: cfg.HitLat}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	c.tags = make([]uint32, sets*cfg.Ways)
	c.lru = make([]uint64, sets*cfg.Ways)
	for i := range c.tags {
		c.tags[i] = ^uint32(0)
	}
	// Seed the memo with a real resident entry so access needs no
	// validity check: every fresh tag is ^0, so line ^0 maps to way 0 of
	// its set and a hit there is exactly what the search loop would
	// report for that line on an untouched cache.
	c.lastLine = ^uint32(0)
	if c.setMask >= 0 {
		c.lastIdx = (int(c.lastLine) & c.setMask) * cfg.Ways
	} else {
		c.lastIdx = (int(c.lastLine) % sets) * cfg.Ways
	}
	return c
}

// access touches addr and returns the latency. The body stays under the
// inlining budget: the memo-hit path (the overwhelmingly common case in
// block-structured code) runs without a call, and only genuine set
// searches reach accessSlow.
func (c *cacheSim) access(addr uint32) float64 {
	if addr>>c.lineBits == c.lastLine {
		c.tick++
		return c.hitLat
	}
	return c.accessSlow(addr)
}

// accessSlow is the non-memoized set search and LRU fill for access.
func (c *cacheSim) accessSlow(addr uint32) float64 {
	line := addr >> c.lineBits
	// Flush the memoized way's deferred LRU timestamp (the tick of its
	// most recent touch, which is the previous access) before any LRU
	// state is read below.
	c.lru[c.lastIdx] = c.tick
	c.tick++
	// Power-of-two set counts (every Table 1 config) index with a mask;
	// the modulo fallback keeps arbitrary configs working. Same index
	// either way, so simulated state evolution is unchanged.
	var set int
	if c.setMask >= 0 {
		set = int(line) & c.setMask
	} else {
		set = int(line) % c.sets
	}
	tag := line
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	for w, t := range tags {
		if t == tag {
			lru[w] = c.tick
			c.lastLine = line
			c.lastIdx = base + w
			return c.cfg.HitLat
		}
	}
	c.Misses++
	victim, oldest := 0, lru[0]
	for w := 1; w < len(lru); w++ {
		if lru[w] < oldest {
			victim, oldest = w, lru[w]
		}
	}
	tags[victim] = tag
	lru[victim] = c.tick
	c.lastLine = line
	c.lastIdx = base + victim
	return c.cfg.MissLat
}

// predictor is a gshare-style branch direction predictor.
type predictor struct {
	table   []uint8
	history uint32

	Lookups, Mispredicts uint64
}

func newPredictor(bits int) *predictor {
	return &predictor{table: make([]uint8, 1<<bits)}
}

func (p *predictor) predict(pc uint32) bool {
	idx := (pc ^ p.history) & uint32(len(p.table)-1)
	return p.table[idx] >= 2
}

func (p *predictor) update(pc uint32, taken bool) bool {
	p.Lookups++
	idx := (pc ^ p.history) & uint32(len(p.table)-1)
	pred := p.table[idx] >= 2
	if taken && p.table[idx] < 3 {
		p.table[idx]++
	}
	if !taken && p.table[idx] > 0 {
		p.table[idx]--
	}
	p.history = p.history<<1 | b2u(taken)
	mis := pred != taken
	if mis {
		p.Mispredicts++
	}
	return mis
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Counts aggregates instruction-mix statistics.
type Counts struct {
	Instrs   uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
	Calls    uint64
	Returns  uint64
	MulDiv   uint64
}

// Model accumulates cycles for one core.
type Model struct {
	Core   CoreConfig
	ICache *cacheSim
	DCache *cacheSim
	Bpred  *predictor

	Cycles float64
	Counts Counts

	// RATEnabled charges the return-address translation penalty on every
	// return (the modified return macro-op).
	RATEnabled bool

	tel       *telemetry.Telemetry
	histPhase *telemetry.Histogram

	// The pending conditional branch is recorded by value, not by *Inst:
	// the interpreter's block cache recycles evicted instruction storage,
	// so hooks must not hold pointers into a block across calls.
	lastJccValid  bool
	lastJccTarget uint32
	lastJccAddr   uint32

	// Per-event costs precomputed from Core at construction. Each is the
	// bit-identical value of the original inline expression (same float
	// operations in the same order), cached so the observe path performs
	// no divisions.
	exp       float64 // latencyExposure()
	issueCost float64 // 1.0 / IssueWidth
	icHitCost float64 // ICache.HitLat / FetchWidth / 4
	mulCost   float64 // 3 * exp / IntMulDiv
	divCost   float64 // 12 * exp / IntMulDiv
	callCost  float64 // 1 * exp
}

// NewModel builds a timing model for the given core.
func NewModel(core CoreConfig) *Model {
	mo := &Model{
		Core:   core,
		ICache: newCacheSim(core.ICache),
		DCache: newCacheSim(core.DCache),
		Bpred:  newPredictor(12),
	}
	exp := 24.0 / float64(core.ROBSize)
	if exp > 1 {
		exp = 1
	}
	mo.exp = exp
	mo.issueCost = 1.0 / float64(core.IssueWidth)
	mo.icHitCost = core.ICache.HitLat / float64(core.FetchWidth) / 4
	mo.mulCost = 3 * exp / float64(core.IntMulDiv)
	mo.divCost = 12 * exp / float64(core.IntMulDiv)
	mo.callCost = 1 * exp
	return mo
}

// BindTelemetry publishes the model's cycle accounting through t: a
// collector mirrors the per-core counters at snapshot time (the model's
// fields stay the canonical per-instruction accumulators — no atomics in
// the observe path), and the measurement loop feeds a per-phase cycle
// histogram plus phase trace events.
func (mo *Model) BindTelemetry(t *telemetry.Telemetry) {
	if t == nil || t.Reg == nil {
		return
	}
	mo.tel = t
	r := t.Reg
	name := mo.Core.Name
	mo.histPhase = r.Histogram("perf." + name + ".phase_cycles")
	r.RegisterCollector(func() {
		r.Gauge("perf." + name + ".cycles").Set(mo.Cycles)
		r.Gauge("perf." + name + ".cpi").Set(mo.CPI())
		r.Counter("perf." + name + ".instrs").Set(mo.Counts.Instrs)
		r.Counter("perf." + name + ".loads").Set(mo.Counts.Loads)
		r.Counter("perf." + name + ".stores").Set(mo.Counts.Stores)
		r.Counter("perf." + name + ".branches").Set(mo.Counts.Branches)
		r.Counter("perf." + name + ".calls").Set(mo.Counts.Calls)
		r.Counter("perf." + name + ".returns").Set(mo.Counts.Returns)
		r.Counter("perf." + name + ".muldiv").Set(mo.Counts.MulDiv)
		r.Counter("perf." + name + ".icache.hits").Set(mo.ICache.Hits())
		r.Counter("perf." + name + ".icache.misses").Set(mo.ICache.Misses)
		r.Counter("perf." + name + ".dcache.hits").Set(mo.DCache.Hits())
		r.Counter("perf." + name + ".dcache.misses").Set(mo.DCache.Misses)
		r.Counter("perf." + name + ".bpred.lookups").Set(mo.Bpred.Lookups)
		r.Counter("perf." + name + ".bpred.mispredicts").Set(mo.Bpred.Mispredicts)
	})
}

// Attach installs the model as the machine's timing observer. The machine
// calls ObserveInst before each single-stepped instruction and
// CommitBlock once per fused block; both account identically (see
// machine.Timing). Attach before any decorator that wraps m.Timing (the
// sampling profiler). Set m.Timing to nil to stop observing.
func (mo *Model) Attach(m *machine.Machine) {
	m.Timing = mo
}

// latencyExposure scales functional-unit latency by how little the ROB can
// hide: deep out-of-order windows overlap long-latency operations.
func (mo *Model) latencyExposure() float64 {
	return mo.exp
}

// ObserveInst implements machine.Timing's per-instruction observation.
func (mo *Model) ObserveInst(m *machine.Machine, in *isa.Inst) {
	mo.Observe(m, in)
}

// CommitBlock implements machine.Timing's batched commit: it charges a
// whole block's instructions in one call at block exit. The first nLogged
// instructions already executed, so their dynamic addresses come from the
// machine's effective-address log; the remainder (the block's final
// instruction, plus an already-executed register-only compare when the
// terminator is a fused cmp+jcc) observe live machine state. The charge
// sequence — every float operation, cache access, and predictor update in
// order — is identical to per-instruction observation, so cycle totals
// match bit for bit.
func (mo *Model) CommitBlock(m *machine.Machine, insts []isa.Inst, nLogged int, eas []uint32) {
	// The running cycle total stays in a local for the whole block: the
	// additions happen in the identical order with identical operands, so
	// the result is bit-equal to accumulating in the field, without the
	// per-charge load/store traffic.
	cy := mo.Cycles
	c := 0
	for i := 0; i < nLogged; i++ {
		in := &insts[i]
		cy = mo.observeFront(in, cy)
		c, cy = mo.observeMemLogged(in, eas, c, cy)
	}
	for i := nLogged; i < len(insts); i++ {
		in := &insts[i]
		cy = mo.observeFront(in, cy)
		cy = mo.observeMem(m, in, cy)
	}
	mo.Cycles = cy
}

// Observe charges cycles for one executed instruction against live
// machine state.
func (mo *Model) Observe(m *machine.Machine, in *isa.Inst) {
	mo.Cycles = mo.observeMem(m, in, mo.observeFront(in, mo.Cycles))
}

// observeFront charges the state-independent part of one instruction:
// pending branch resolution, issue bandwidth, instruction fetch, and
// functional-unit latency. It needs no machine state, so the logged and
// live observation paths share it verbatim. The cycle total is threaded
// through cy so block commits keep it in a register.
func (mo *Model) observeFront(in *isa.Inst, cy float64) float64 {
	c := &mo.Core
	mo.Counts.Instrs++

	// Resolve the previous conditional branch now that the outcome is
	// visible (the next instruction's address tells the direction).
	if mo.lastJccValid {
		taken := in.Addr == mo.lastJccTarget
		if mo.Bpred.update(mo.lastJccAddr, taken) {
			cy += c.MispredictPenalty
		}
		mo.lastJccValid = false
	}

	// Issue bandwidth.
	cy += mo.issueCost

	// Instruction fetch: one I-cache access per line touched.
	lat := mo.ICache.access(in.Addr)
	if lat > mo.ICache.cfg.HitLat {
		cy += lat
	} else {
		cy += mo.icHitCost
	}

	switch in.Op {
	case isa.OpMul:
		mo.Counts.MulDiv++
		cy += mo.mulCost
	case isa.OpDiv:
		mo.Counts.MulDiv++
		cy += mo.divCost
	case isa.OpJcc:
		mo.Counts.Branches++
		mo.Bpred.predict(in.Addr)
		mo.lastJccValid = true
		mo.lastJccTarget = in.Target
		mo.lastJccAddr = in.Addr
	case isa.OpCall, isa.OpCallI:
		mo.Counts.Calls++
		cy += mo.callCost
	case isa.OpRet, isa.OpBx:
		if in.Op == isa.OpRet || in.Dst.IsReg(isa.LR) {
			mo.Counts.Returns++
			if mo.RATEnabled {
				cy += mo.Core.RATLookup
			}
		}
	}
	return cy
}

func (mo *Model) observeMem(m *machine.Machine, in *isa.Inst, cy float64) float64 {
	charge := func(o isa.Operand, store bool) {
		if o.Kind != isa.OpdMem {
			return
		}
		ea := effectiveAddr(m, o.Mem)
		lat := mo.DCache.access(ea)
		exp := mo.exp
		if store {
			mo.Counts.Stores++
			// Stores retire through the store queue; latency mostly hidden.
			cy += lat * exp * 0.3
		} else {
			mo.Counts.Loads++
			cy += lat * exp
		}
	}
	switch in.Op {
	case isa.OpMov, isa.OpLoad, isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpCmp, isa.OpTest, isa.OpMul, isa.OpDiv, isa.OpShl,
		isa.OpShr, isa.OpNeg, isa.OpNot, isa.OpInc, isa.OpDec:
		charge(in.Src, false)
		if in.Op == isa.OpMov || in.Op == isa.OpLoad {
			charge(in.Dst, true)
		} else {
			// Read-modify-write memory destination.
			if in.Dst.Kind == isa.OpdMem {
				charge(in.Dst, false)
				charge(in.Dst, true)
			}
		}
	case isa.OpStore:
		charge(in.Dst, true)
	case isa.OpPush:
		charge(in.Src, false)
		mo.Counts.Stores++
		cy += mo.DCache.access(m.SP()-4) * mo.exp * 0.3
	case isa.OpPop, isa.OpRet, isa.OpLeave:
		mo.Counts.Loads++
		cy += mo.DCache.access(m.SP()) * mo.exp
	case isa.OpPushM, isa.OpPopM:
		n := 0
		for r := 0; r < 16; r++ {
			if in.RegMask&(1<<r) != 0 {
				n++
			}
		}
		cy += float64(n) * mo.DCache.access(m.SP()) * mo.exp * 0.5
	}
	return cy
}

// observeMemLogged mirrors observeMem with dynamic addresses replayed
// from the machine's effective-address log (layout: src EA if Src is a
// memory operand, then dst EA if Dst is one, then pre-exec SP for
// Op.StackAccess instructions — see isa.Op.StackAccess). Entries the
// model does not charge (e.g. a lea's address) are still consumed, so the
// cursor stays aligned with what the machine logged. It returns the
// advanced cursor.
func (mo *Model) observeMemLogged(in *isa.Inst, eas []uint32, c int, cy float64) (int, float64) {
	var srcEA, dstEA, spEA uint32
	if in.Src.Kind == isa.OpdMem {
		srcEA = eas[c]
		c++
	}
	if in.Dst.Kind == isa.OpdMem {
		dstEA = eas[c]
		c++
	}
	if in.Op.StackAccess() {
		spEA = eas[c]
		c++
	}
	exp := mo.exp
	switch in.Op {
	case isa.OpMov, isa.OpLoad, isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpCmp, isa.OpTest, isa.OpMul, isa.OpDiv, isa.OpShl,
		isa.OpShr, isa.OpNeg, isa.OpNot, isa.OpInc, isa.OpDec:
		if in.Src.Kind == isa.OpdMem {
			mo.Counts.Loads++
			cy += mo.DCache.access(srcEA) * exp
		}
		if in.Op == isa.OpMov || in.Op == isa.OpLoad {
			if in.Dst.Kind == isa.OpdMem {
				mo.Counts.Stores++
				cy += mo.DCache.access(dstEA) * exp * 0.3
			}
		} else if in.Dst.Kind == isa.OpdMem {
			// Read-modify-write memory destination: load then store.
			mo.Counts.Loads++
			cy += mo.DCache.access(dstEA) * exp
			mo.Counts.Stores++
			cy += mo.DCache.access(dstEA) * exp * 0.3
		}
	case isa.OpStore:
		if in.Dst.Kind == isa.OpdMem {
			mo.Counts.Stores++
			cy += mo.DCache.access(dstEA) * exp * 0.3
		}
	case isa.OpPush:
		if in.Src.Kind == isa.OpdMem {
			mo.Counts.Loads++
			cy += mo.DCache.access(srcEA) * exp
		}
		mo.Counts.Stores++
		cy += mo.DCache.access(spEA-4) * exp * 0.3
	case isa.OpPop, isa.OpRet, isa.OpLeave:
		mo.Counts.Loads++
		cy += mo.DCache.access(spEA) * exp
	case isa.OpPushM, isa.OpPopM:
		n := 0
		for r := 0; r < 16; r++ {
			if in.RegMask&(1<<r) != 0 {
				n++
			}
		}
		cy += float64(n) * mo.DCache.access(spEA) * exp * 0.5
	}
	return c, cy
}

func effectiveAddr(m *machine.Machine, r isa.MemRef) uint32 {
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

// CPI returns cycles per instruction so far.
func (mo *Model) CPI() float64 {
	if mo.Counts.Instrs == 0 {
		return 0
	}
	return mo.Cycles / float64(mo.Counts.Instrs)
}

// Seconds converts accumulated cycles to wall time on this core.
func (mo *Model) Seconds() float64 {
	return mo.Cycles / (mo.Core.FreqGHz * 1e9)
}

// Snapshot captures the current cycle/instruction counters.
type Snapshot struct {
	Cycles float64
	Instrs uint64
}

// Snap returns the current counters.
func (mo *Model) Snap() Snapshot {
	return Snapshot{Cycles: mo.Cycles, Instrs: mo.Counts.Instrs}
}

// Since returns cycles and instructions accumulated after s.
func (mo *Model) Since(s Snapshot) (float64, uint64) {
	return mo.Cycles - s.Cycles, mo.Counts.Instrs - s.Instrs
}
