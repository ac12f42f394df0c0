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
// every performance figure in the paper reports. Fused blocks are charged
// once per block from a timing summary (commitSummary), and each cache
// set keeps its lines in recency order, so the common cache access — a
// hit on the set's most recently used line — is one compare (cacheSim).
package perf

import (
	"math"

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

// cacheSim is a set-associative cache with LRU replacement. Each set
// keeps its lines in recency order, most recently used first, so a hit on
// the front way — the common case in block-structured code — is one
// compare that writes nothing. A hit further down moves its way to the
// front; a miss evicts the last way, the least recently used, and puts
// the new line at the front. Hit and miss depend only on each set's order
// of last touches, so this is exactly LRU.
type cacheSim struct {
	cfg      CacheConfig
	sets     int
	setMask  int // sets-1 when sets is a power of two, else -1
	lineBits uint
	ways     int
	// tags is a set-major flat array (sets*ways entries): one
	// bounds-checked slice per access instead of a per-set pointer chase.
	// An empty way holds ^0, which no line number equals when lines are
	// wider than a byte (the address is shifted right), and stays behind
	// every filled way of its set, so a miss fills empty ways first.
	tags []uint32
	tick uint64 // accesses

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
	c := &cacheSim{cfg: cfg, sets: sets, setMask: -1, lineBits: lb, ways: cfg.Ways}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	c.tags = make([]uint32, sets*cfg.Ways)
	for i := range c.tags {
		c.tags[i] = ^uint32(0)
	}
	return c
}

// set returns the index in tags of the front way of line's set.
// Power-of-two set counts (every Table 1 config) index with a mask; the
// modulo fallback keeps arbitrary configs working.
func (c *cacheSim) set(line uint32) int {
	if c.setMask >= 0 {
		return (int(line) & c.setMask) * c.ways
	}
	return int(line) % c.sets * c.ways
}

// access touches addr and returns the latency. It serves the
// per-instruction path; commitSummary writes the same front compare
// inline, since access itself is over the inlining budget.
func (c *cacheSim) access(addr uint32) float64 {
	c.tick++
	line := addr >> c.lineBits
	if i := c.set(line); c.tags[i] != line && c.promote(i, line) {
		return c.cfg.MissLat
	}
	return c.cfg.HitLat
}

// promote moves line to the front of the set whose front way is
// tags[i] and does not hold it, and reports whether the access missed.
// On a hit the ways in front of line's shift back by one; on a miss all
// of them do, and the last one is evicted.
func (c *cacheSim) promote(i int, line uint32) bool {
	set := c.tags[i : i+c.ways]
	w := 1
	for w < len(set) && set[w] != line {
		w++
	}
	miss := w == len(set)
	if miss {
		c.Misses++
		w--
	}
	for ; w > 0; w-- {
		set[w] = set[w-1]
	}
	set[0] = line
	return miss
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
	exp       float64 // 24 / ROBSize, at most 1: how little the ROB hides FU latency
	issueCost float64 // 1.0 / IssueWidth
	icHitCost float64 // ICache.HitLat / FetchWidth / 4
	mulCost   float64 // 3 * exp / IntMulDiv
	divCost   float64 // 12 * exp / IntMulDiv
	callCost  float64 // 1 * exp

	fix fixedCosts

	// Whole-block commits, and how many of them took the summary path.
	blockCommits, fastCommits uint64
}

// fixedCosts holds the per-event charges of summary commits in sixteenths
// of a cycle. Every charge of the Table 1 cores except the non-integral
// store charges is such a multiple, so a block's charges can be summed as
// integers and added to the running total at once (see commitSummary).
// ok is false when the core's constants break that; then every commit
// takes the per-instruction path.
type fixedCosts struct {
	ok bool

	issue, icHit, icMiss      int64
	mul, div, call, rat, miss int64 // miss: branch mispredict
	// Data-cache charges, indexed by access outcome (0 hit, 1 miss). A
	// store charge that is a multiple of 1/16 lives in storeFix (and
	// storeFlt is 0); otherwise it lives in storeFlt, folded in float64.
	load, push, storeFix [2]int64
	storeFlt             [2]float64

	// Per-event maxima for the commit bound.
	icMax, loadMax, pushMax, storeMax int64
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
	mo.fix = mo.fixedCosts()
	return mo
}

// sixteenths returns x as a count of 1/16 cycles when it is exactly one.
func sixteenths(x float64) (int64, bool) {
	v := x * 16
	if !(v >= 0 && v < 1<<30) || v != math.Trunc(v) {
		return 0, false
	}
	return int64(v), true
}

// fixedCosts converts the model's charges to sixteenths and checks the
// conditions under which summary commits are exact (see commitSummary):
// every charge but the store charges is a multiple of 1/16; each store
// charge is either such a multiple or has a set bit below 2^-43, half an
// ulp of the smallest total the fast path accepts; and no instruction
// (at most machine.MaxInstLen bytes) is wider than an I-cache line, so a
// block's instruction starts touch every line from its first to its
// last. Each charge is the value the per-instruction path computes, with
// the same float operations in the same order.
func (mo *Model) fixedCosts() fixedCosts {
	c := &mo.Core
	ok := true
	get := func(x float64) int64 {
		v, exact := sixteenths(x)
		ok = ok && exact
		return v
	}
	var fx fixedCosts
	fx.issue = get(mo.issueCost)
	fx.icHit = get(mo.icHitCost)
	fx.icMiss = fx.icHit
	if c.ICache.MissLat > c.ICache.HitLat {
		fx.icMiss = get(c.ICache.MissLat)
	}
	fx.icMax = max(fx.icHit, fx.icMiss)
	fx.mul, fx.div, fx.call = get(mo.mulCost), get(mo.divCost), get(mo.callCost)
	fx.rat, fx.miss = get(c.RATLookup), get(c.MispredictPenalty)
	for o, lat := range [2]float64{c.DCache.HitLat, c.DCache.MissLat} {
		fx.load[o] = get(lat * mo.exp)
		fx.push[o] = get(lat * mo.exp * 0.5)
		for n := 0; n <= 16; n++ {
			ok = ok && float64(n)*lat*mo.exp*0.5 == float64(int64(n)*fx.push[o])/16
		}
		st := lat * mo.exp * 0.3
		if v, exact := sixteenths(st); exact {
			fx.storeFix[o] = v
		} else {
			t := st * 0x1p43
			ok = ok && st >= 0 && st < 1<<20 && t != math.Trunc(t)
			fx.storeFlt[o] = st
		}
		fx.loadMax = max(fx.loadMax, fx.load[o])
		fx.pushMax = max(fx.pushMax, fx.push[o])
		fx.storeMax = max(fx.storeMax, int64(math.Ceil(st*16)))
	}
	fx.ok = ok && 1<<mo.ICache.lineBits >= machine.MaxInstLen
	return fx
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

// Attach installs the model as the machine's timing observer: the machine
// then commits every instruction it executes through CommitBlock, one at a
// time under Step and one fused block at a time under Run (see
// machine.Timing). Attach before any decorator that wraps m.Timing (the
// sampling profiler). Set m.Timing to nil to stop observing.
func (mo *Model) Attach(m *machine.Machine) {
	m.Timing = mo
}

// CommitBlock implements machine.Timing: it charges a run of logged
// instructions in one call. A whole block (bt non-nil) is charged from its
// summary by commitSummary when the running total allows an exact fast
// commit; every other commit (Step's single instructions, prefix and
// suffix commits, guard misses) runs the per-instruction reference,
// observeFront then observeMemLogged, over each instruction against the
// effective-address log. Either way cycle totals, counts and cache and
// predictor statistics equal the per-instruction reference's bit for bit.
func (mo *Model) CommitBlock(m *machine.Machine, insts []isa.Inst, bt *isa.BlockTiming, eas []uint32) {
	if bt != nil {
		mo.blockCommits++
		if mo.commitSummary(insts, bt, eas) {
			mo.fastCommits++
			return
		}
	}
	// The running cycle total stays in a local for the whole block: the
	// additions happen in the identical order with identical operands, so
	// the result is bit-equal to accumulating in the field, without the
	// per-charge load/store traffic.
	cy := mo.Cycles
	c := 0
	for i := range insts {
		in := &insts[i]
		cy = mo.observeFront(in, cy)
		c, cy = mo.observeMemLogged(in, eas, c, cy)
	}
	mo.Cycles = cy
}

// commitSummary charges a whole block from its timing summary and
// reports whether it did; it declines, touching nothing, unless the
// result is provably bit-identical to the per-instruction path.
//
// The argument: let cy, the total before the commit, lie in [2^e,
// 2^(e+1)) with 2^10 ≤ cy < 2^40, and let the block's worst-case charge
// keep every partial total below 2^(e+1). The ulp of every partial total
// is then 2^(e-52) ≤ 2^-12, so adding any multiple of 1/16 is exact, and
// adding such a multiple commutes with the rounding of a store addition
// (round-to-nearest is shift-invariant by multiples of the ulp within
// one binade, and a store charge's set bit below half an ulp rules out
// ties). The in-order float64 sum therefore equals the in-order fold of
// the store charges alone plus the integer sum of the rest, which is
// what this computes.
//
// Cache and predictor state evolve exactly as under per-instruction
// observation. The pending branch resolves against the block's first
// address, and only a block's last instruction can be a jcc. Instruction
// starts are contiguous and no instruction is wider than a line, so the
// block fetches exactly the I-cache lines from its first start to its
// last, each once in address order; every other fetch is to the line
// just fetched, a front-way hit that changes nothing but the access
// count, so the tick grows by the instruction count at the end.
// Data-cache accesses follow the summary's charge program, which lists
// them in per-instruction order. Both caches' front compares are written
// here rather than through access, which is over the inlining budget, so
// the common access costs one compare and no call.
func (mo *Model) commitSummary(insts []isa.Inst, bt *isa.BlockTiming, eas []uint32) bool {
	fx := &mo.fix
	cy := mo.Cycles
	if !fx.ok || !(cy >= 0x1p10 && cy < 0x1p40) {
		return false
	}
	ic := mo.ICache
	n := int64(len(insts))
	firstLine := insts[0].Addr >> ic.lineBits
	lastLine := insts[n-1].Addr >> ic.lineBits
	if lastLine < firstLine {
		return false // the block wraps the address space
	}
	lines := int64(lastLine-firstLine) + 1
	bound := n*(fx.issue+fx.icHit) + lines*(fx.icMax-fx.icHit) +
		int64(bt.Muls)*fx.mul + int64(bt.Divs)*fx.div +
		int64(bt.Calls)*fx.call + int64(bt.Returns)*fx.rat + fx.miss +
		int64(bt.Loads)*fx.loadMax + int64(bt.Stores)*fx.storeMax +
		int64(bt.MultiRegs)*fx.pushMax + 16 // a cycle of slack for store rounding
	next := math.Float64frombits((math.Float64bits(cy)>>52 + 1) << 52)
	if cy+float64(bound)/16 >= next {
		return false
	}

	var sum int64
	if mo.lastJccValid {
		if mo.Bpred.update(mo.lastJccAddr, insts[0].Addr == mo.lastJccTarget) {
			sum += fx.miss
		}
		mo.lastJccValid = false
	}
	if last := &insts[n-1]; last.Op == isa.OpJcc {
		mo.lastJccValid = true
		mo.lastJccTarget = last.Target
		mo.lastJccAddr = last.Addr
	}

	misses := ic.Misses
	for l := firstLine; l <= lastLine; l++ {
		if i := ic.set(l); ic.tags[i] != l {
			ic.promote(i, l)
		}
	}
	ic.tick += uint64(n)
	icMisses := int64(ic.Misses - misses)
	sum += n*fx.issue + (n-icMisses)*fx.icHit + icMisses*fx.icMiss
	sum += int64(bt.Muls)*fx.mul + int64(bt.Divs)*fx.div + int64(bt.Calls)*fx.call
	if mo.RATEnabled {
		sum += int64(bt.Returns) * fx.rat
	}

	dc := mo.DCache
	f := cy
	accesses := uint64(len(bt.Charges))
	for _, ch := range bt.Charges {
		ea := eas[ch.Slot]
		if ch.Kind == isa.ChargePush {
			ea -= 4
		}
		line, o := ea>>dc.lineBits, 0
		if i := dc.set(line); dc.tags[i] != line && dc.promote(i, line) {
			o = 1
		}
		switch ch.Kind {
		case isa.ChargeLoad:
			sum += fx.load[o]
		case isa.ChargeStore, isa.ChargePush:
			sum += fx.storeFix[o]
			f += fx.storeFlt[o]
		case isa.ChargeLoadStore:
			// The store touches the line the load just put in front: a
			// hit that changes nothing but the access count.
			sum += fx.load[o] + fx.storeFix[0]
			f += fx.storeFlt[0]
			accesses++
		case isa.ChargeMulti:
			sum += int64(ch.Regs) * fx.push[o]
		}
	}
	dc.tick += accesses

	c := &mo.Counts
	c.Instrs += uint64(bt.Instrs)
	c.Loads += uint64(bt.Loads)
	c.Stores += uint64(bt.Stores)
	c.Branches += uint64(bt.Branches)
	c.Calls += uint64(bt.Calls)
	c.Returns += uint64(bt.Returns)
	c.MulDiv += uint64(bt.Muls + bt.Divs)
	mo.Cycles = f + float64(sum)/16
	return true
}

// observeFront charges the state-independent part of one instruction:
// pending branch resolution, issue bandwidth, instruction fetch, and
// functional-unit latency. With observeMemLogged it is the
// per-instruction reference charge that commitSummary must match bit for
// bit. The cycle total is threaded through cy so block commits keep it in
// a register.
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

// observeMemLogged charges one instruction's data-cache accesses at the
// dynamic addresses the machine logged from its pre-execution state
// (layout: src EA if Src is a memory operand, then dst EA if Dst is one,
// then pre-exec SP for Op.StackAccess instructions — see
// isa.Op.StackAccess). Entries the model does not charge (e.g. a lea's
// address) are still consumed, so the cursor stays aligned with what the
// machine logged. It returns the advanced cursor.
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
