package dbt

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/proc"
	"hipstr/internal/psr"
	"hipstr/internal/telemetry"
)

// ErrSecurityKill reports a software-fault-isolation termination: an
// indirect transfer into a code cache or to a non-text address, a forged
// or stale trap, an unregistered call site, or untranslatable code. The
// VM raises every one through kill.
var ErrSecurityKill = errors.New("dbt: process killed by security policy")

// OptLevel selects the PSR performance optimizations of Table 3.
type OptLevel int

const (
	O0 OptLevel = iota // no optimization
	O1                 // machine block placement, branch inlining/superblocks
	O2                 // + global register cache
	O3                 // + PSR with a register bias
)

// Config configures a PSR virtual machine pair.
type Config struct {
	CodeCacheSize uint32 // bytes per ISA (default 2 MiB)
	RATSize       int    // return address table entries (default 512)
	Opt           OptLevel
	RandPages     int // frame randomization space in pages (default 2)
	// DualTranslate translates each compulsory miss for both ISAs
	// (paper §3.5), reducing later cross-ISA misses.
	DualTranslate bool
	// MigrateProb is the probability of migrating to the other ISA when a
	// security event (indirect control transfer missing the code cache)
	// fires. Migration also requires a Migrator.
	MigrateProb float64
	Seed        int64
	// Telemetry receives the VM's metrics and trace events. Leave nil to
	// have the VM create a private instance; the HIPStR layer injects a
	// shared one so the DBT, migration engine, and timing model report
	// into a single registry.
	Telemetry *telemetry.Telemetry
	// TraceCap bounds the event tracer's ring buffer when the VM creates
	// its own Telemetry (long-run trace analysis without a sink needs a
	// deeper ring). Zero or negative selects telemetry.DefaultTraceCap;
	// ignored when Telemetry is injected.
	TraceCap int
	// SharedUnits overrides the process-wide shared translation-unit
	// cache (nil selects dbt.SharedUnits). Tests inject private caches;
	// cold-spawn benchmarks isolate themselves with one.
	SharedUnits *UnitCache
	// NoSharedUnits opts the VM out of the shared unit cache entirely:
	// every translation runs the translator.
	NoSharedUnits bool
}

// DefaultConfig returns the paper's main configuration.
func DefaultConfig() Config {
	return Config{
		CodeCacheSize: 2 << 20,
		RATSize:       512,
		Opt:           O3,
		RandPages:     2,
		DualTranslate: true,
		MigrateProb:   1.0,
	}
}

func (c Config) psrConfig() psr.Config {
	pc := psr.Config{RandPages: c.RandPages}
	if c.Opt >= O2 {
		pc.GlobalRegCache = 3
	}
	if c.Opt >= O3 {
		pc.RegisterBias = true
	}
	return pc
}

// Stats counts VM events.
type Stats struct {
	Translations       [2]uint64
	IndirectDispatch   uint64
	CodeCacheMisses    uint64 // indirect transfers that missed (security events)
	CompulsoryMisses   uint64
	ReturnMisses       uint64 // RAT misses leading to retranslation
	SecurityEvents     uint64
	Migrations         uint64
	SecurityMigrations uint64
	ChainPatches       uint64
	Kills              uint64
	Flushes            uint64
	SyscallsForwarded  uint64
	// Shared translation-unit cache outcomes, attributed to this VM (the
	// cache itself also keeps process-wide aggregates).
	SharedHits       uint64
	SharedMisses     uint64
	SharedInstalls   uint64
	SharedBytesSaved uint64
}

// Migrator transforms the running process's state to the other ISA and
// returns the code-cache address to resume at. It is installed by the
// HIPStR layer (package core); a nil Migrator disables migration.
type Migrator interface {
	// Migrate moves execution to the other ISA, resuming at the source
	// address resumeSrc (expressed in the *current* ISA's text). boundary
	// reports whether register state is in the call-boundary (physical)
	// convention (return events) rather than relocated form (indirect
	// jumps). It returns false when the point is not migration-safe.
	Migrate(vm *VM, resumeSrc uint32, boundary bool) bool
	// MigrateEntry migrates at a callee-entry boundary (indirect call
	// dispatch): the return address has been saved per the current ISA's
	// convention but the callee frame does not exist yet. calleeEntry is
	// the callee's entry address in the current ISA's text.
	MigrateEntry(vm *VM, calleeEntry uint32) bool
}

// VM is a pair of PSR virtual machines (one per ISA) sharing one process.
type VM struct {
	Bin *fatbin.Binary
	P   *proc.Process
	Cfg Config

	Rand      *psr.Randomizer
	policyRng *rand.Rand

	caches [2]*CodeCache
	rats   [2]*RAT
	maps   map[int][2]*psr.Map
	traps  [2]map[uint32]trapMeta
	calls  [2]map[uint32]callMeta
	gen    [2]int

	// shared is the content-addressed unit cache this VM consults and
	// publishes into (nil = opted out).
	shared *UnitCache
	// layoutSeed is the PSR seed behind vm.Rand, fixed at construction
	// (Cfg is exported and mutable). Part of the shared cache's layout
	// class.
	layoutSeed int64
	// mapOrder records the symbol-table indices of every relocation map
	// built, in build order; mapDigest folds the same sequence. The
	// randomizer is sequential, so this order fully determines map
	// contents given the seed — Fork replays it to reconstruct identical
	// maps and RNG state, and the shared cache keys on the digest.
	mapOrder  []int
	mapDigest uint64

	Stats    Stats
	Migrator Migrator

	tel           *telemetry.Telemetry
	histTranslate [2]*telemetry.Histogram
	histUnitBytes [2]*telemetry.Histogram

	// PendingMigration requests a performance-policy migration (phase
	// change, §5.2) at the next migration-safe boundary (the next
	// return). The flag clears once a migration succeeds.
	PendingMigration bool

	// LastEventTarget records the raw target of the most recent security
	// event, before validation — the attack analyses use it to observe
	// where a hijacked transfer tried to go.
	LastEventTarget uint32

	progSyscall machine.SyscallHandler

	// xs holds the translator's reusable scratch buffers. Under cache
	// churn the translator runs thousands of times per second; recycling
	// its working set (the assembler's item list, decoded unit, pending
	// trap/call lists, the chain patch's bytes) keeps translation off the
	// allocator entirely.
	xs translateScratch
}

// translateScratch recycles one translation's working set into the next.
// The VM is single-threaded, so one set suffices.
type translateScratch struct {
	asm      *isa.Asm
	insts    []isa.Inst
	callCtx  []int
	newTraps []pendingTrap
	newCalls []pendingCall
	unit     unitEntry // translateUnit's output, valid until the next unit
	patch    []byte    // handleChain's encoded branch
}

// New boots bin under a fresh PSR virtual machine pair starting on ISA k.
func New(bin *fatbin.Binary, k isa.Kind, cfg Config) (*VM, error) {
	if cfg.CodeCacheSize == 0 {
		cfg.CodeCacheSize = 2 << 20
	}
	if cfg.RATSize == 0 {
		cfg.RATSize = 512
	}
	if cfg.RandPages == 0 {
		cfg.RandPages = 2
	}
	p, err := proc.New(bin, k)
	if err != nil {
		return nil, err
	}
	for _, kk := range isa.Kinds {
		p.Mem.Map("cache."+kk.String(), fatbin.CacheBase(kk), cfg.CodeCacheSize, mem.PermRX)
	}
	vm := newVM(bin, p, cfg)
	vm.emptyCaches()
	if err := vm.Start(k); err != nil {
		return nil, err
	}
	return vm, nil
}

// newVM wires a VM around process p: its telemetry (a private instance
// whose ring keeps cfg.TraceCap events unless cfg.Telemetry is injected),
// the PSR randomizer seeded from cfg.Seed, the shared unit cache, and the
// process's control and syscall hooks. The caller installs the
// translation state: emptyCaches for a fresh guest, clones for a fork.
func newVM(bin *fatbin.Binary, p *proc.Process, cfg Config) *VM {
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewWithTraceCap(cfg.TraceCap)
	}
	vm := &VM{
		Bin:        bin,
		P:          p,
		Cfg:        cfg,
		Rand:       psr.NewRandomizer(cfg.Seed, cfg.psrConfig()),
		policyRng:  rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		maps:       make(map[int][2]*psr.Map),
		tel:        cfg.Telemetry,
		layoutSeed: cfg.Seed,
		mapDigest:  digestInit,
	}
	if !cfg.NoSharedUnits {
		if vm.shared = cfg.SharedUnits; vm.shared == nil {
			vm.shared = SharedUnits
		}
	}
	vm.registerTelemetry()
	p.SetControlHook(vm.onControl)
	vm.progSyscall = p.M.Syscall
	p.M.Syscall = vm.onSyscall
	return vm
}

// emptyCaches installs fresh translation state on both ISAs: empty code
// caches, RATs, and trap and call registries.
func (vm *VM) emptyCaches() {
	for _, k := range isa.Kinds {
		vm.caches[k] = NewCodeCache(k, vm.Cfg.CodeCacheSize)
		// A flush evicts translations without necessarily rewriting their
		// bytes; bump the code generation of the flushed region so the
		// interpreter's block cache drops its predecodes of the evicted
		// units — and nothing else (the other ISA's cache and program
		// text stay warm). Commits and chain patches invalidate their own
		// pages through the write barrier.
		vm.caches[k].OnFlush = vm.P.Mem.InvalidateCodeRange
		vm.rats[k] = NewRAT(vm.Cfg.RATSize)
		vm.traps[k] = make(map[uint32]trapMeta)
		vm.calls[k] = make(map[uint32]callMeta)
	}
}

// Start (re)enters the program at its entry point on ISA k, translating
// the entry block.
func (vm *VM) Start(k isa.Kind) error {
	vm.P.Reset(k)
	entry := vm.Bin.Func(vm.Bin.EntryFunc).Entry[k]
	cacheAddr, err := vm.EnsureTranslated(k, entry)
	if err != nil {
		return err
	}
	vm.P.M.PC = cacheAddr
	return nil
}

// Run executes up to maxSteps instructions.
func (vm *VM) Run(maxSteps uint64) (uint64, error) { return vm.P.Run(maxSteps) }

// Active returns the ISA currently executing.
func (vm *VM) Active() isa.Kind { return vm.P.M.ISA }

// Cache returns the code cache of ISA k.
func (vm *VM) Cache(k isa.Kind) *CodeCache { return vm.caches[k] }

// RAT returns the return address table of ISA k.
func (vm *VM) RATOf(k isa.Kind) *RAT { return vm.rats[k] }

// Telemetry returns the VM's metrics registry and event tracer.
func (vm *VM) Telemetry() *telemetry.Telemetry { return vm.tel }

// ResolvePCClass maps an executing PC on ISA k to the guest source address
// it executes on behalf of: PCs inside ISA k's code cache (translated
// units, including their trap stubs) resolve through the owning
// translation unit's source block; guest-text PCs resolve to themselves.
// ok is false for addresses in neither region (or in a cache gap left by
// alignment before the first unit). stub reports whether pc falls inside a
// translation unit's deferred trap-stub region — VM dispatch overhead
// (chain traps awaiting patching) rather than translated guest code; guest
// text PCs are never stubs. Single-goroutine, like every other VM
// accessor: the sampling profiler calls it from the machine's timing
// observer.
func (vm *VM) ResolvePCClass(k isa.Kind, pc uint32) (src uint32, stub, ok bool) {
	if c := vm.caches[k]; c.Contains(pc) {
		src, ok = c.UnitAt(pc)
		return src, ok && c.StubAt(pc), ok
	}
	if vm.Bin.FuncAt(k, pc) != nil {
		return pc, false, true
	}
	return pc, false, false
}

// registerTelemetry wires the VM into its registry. The raw Stats / RAT /
// CodeCache fields stay the canonical (and allocation-free) counters; a
// collector mirrors them into the registry at snapshot time, so the
// registry always reports exactly what the legacy accessors do without
// adding work to the dispatch loop. Only genuinely new measurements
// (translation latency, unit sizes) are pushed directly.
func (vm *VM) registerTelemetry() {
	r := vm.tel.Reg
	for _, k := range isa.Kinds {
		vm.histTranslate[k] = r.Histogram("dbt.translate.latency_us." + k.String())
		vm.histUnitBytes[k] = r.Histogram("dbt.translate.unit_bytes." + k.String())
	}
	r.RegisterCollector(func() {
		for _, k := range isa.Kinds {
			ks := k.String()
			r.Counter("dbt.translations." + ks).Set(vm.Stats.Translations[k])
			c := vm.caches[k]
			r.Gauge("dbt.cache." + ks + ".used_bytes").Set(float64(c.Used()))
			r.Gauge("dbt.cache." + ks + ".occupancy").Set(float64(c.Used()) / float64(c.Size))
			r.Gauge("dbt.cache." + ks + ".units").Set(float64(c.NumUnits()))
			r.Gauge("dbt.cache." + ks + ".indirect_targets").Set(float64(c.IndirectTargetCount()))
			r.Counter("dbt.cache." + ks + ".lookups").Set(c.Lookups)
			r.Counter("dbt.cache." + ks + ".hits").Set(c.Hits)
			r.Gauge("dbt.cache." + ks + ".hit_ratio").Set(c.HitRatio())
			rat := vm.rats[k]
			r.Counter("dbt.rat." + ks + ".lookups").Set(rat.Lookups)
			r.Counter("dbt.rat." + ks + ".misses").Set(rat.Misses)
			r.Counter("dbt.rat." + ks + ".evictions").Set(rat.Evictions)
			r.Gauge("dbt.rat." + ks + ".entries").Set(float64(rat.Entries()))
			r.Gauge("dbt.rat." + ks + ".hit_ratio").Set(rat.HitRatio())
		}
		vm.P.M.PublishStats(r)
		st := &vm.Stats
		r.Counter("dbt.indirect_dispatch").Set(st.IndirectDispatch)
		r.Counter("dbt.code_cache_misses").Set(st.CodeCacheMisses)
		r.Counter("dbt.compulsory_misses").Set(st.CompulsoryMisses)
		r.Counter("dbt.return_misses").Set(st.ReturnMisses)
		r.Counter("dbt.security_events").Set(st.SecurityEvents)
		r.Counter("dbt.migrations").Set(st.Migrations)
		r.Counter("dbt.security_migrations").Set(st.SecurityMigrations)
		r.Counter("dbt.chain_patches").Set(st.ChainPatches)
		r.Counter("dbt.kills").Set(st.Kills)
		r.Counter("dbt.flushes").Set(st.Flushes)
		r.Counter("dbt.syscalls_forwarded").Set(st.SyscallsForwarded)
		r.Counter("dbt.sharedcache.hits").Set(st.SharedHits)
		r.Counter("dbt.sharedcache.misses").Set(st.SharedMisses)
		r.Counter("dbt.sharedcache.installs").Set(st.SharedInstalls)
		r.Counter("dbt.sharedcache.bytes_saved").Set(st.SharedBytesSaved)
		r.Gauge("mem.cow.shared_pages").Set(float64(vm.P.Mem.SharedPages()))
		r.Counter("mem.cow.broken_pages").Set(vm.P.Mem.CowBroken())
	})
}

// MapOf returns (building on demand) the relocation map pair of fn.
func (vm *VM) MapOf(fn *fatbin.FuncMeta) [2]*psr.Map {
	if pair, ok := vm.maps[fn.Index]; ok {
		return pair
	}
	pair := vm.Rand.BuildPair(fn)
	vm.maps[fn.Index] = pair
	vm.mapOrder = append(vm.mapOrder, fn.Index)
	vm.mapDigest = foldDigest(vm.mapDigest, uint64(fn.Index))
	return pair
}

func (vm *VM) flush(k isa.Kind) {
	detail := fmt.Sprintf("%d units evicted", vm.caches[k].NumUnits())
	sp := vm.tel.StartSpan("dbt", "cache-flush")
	sp.SetISA(k.String())
	sp.SetDetail(detail)
	vm.tel.Emit(telemetry.Event{Type: telemetry.EvCacheFlush, ISA: k.String(), Detail: detail})
	vm.caches[k].Flush()
	vm.rats[k].Flush()
	vm.traps[k] = make(map[uint32]trapMeta)
	vm.calls[k] = make(map[uint32]callMeta)
	vm.gen[k]++
	vm.Stats.Flushes++
	sp.End()
}

// unitAlign returns the code cache alignment for new units (machine block
// placement aligns to I-cache lines at O1+).
func (vm *VM) unitAlign() uint32 {
	if vm.Cfg.Opt >= O1 {
		return 64
	}
	return 16
}

// EnsureTranslated returns the cache address of src's translation on ISA
// k, translating (and, under DualTranslate, translating the same block for
// the other ISA) on a miss. The migration engine uses it to land on warm
// code after a switch.
func (vm *VM) EnsureTranslated(k isa.Kind, src uint32) (uint32, error) {
	if a, ok := vm.caches[k].Lookup(src); ok {
		return a, nil
	}
	vm.Stats.CompulsoryMisses++
	addr, err := vm.translate(k, src)
	if err != nil {
		return 0, err
	}
	if vm.Cfg.DualTranslate {
		// Translate the equivalent block for the other ISA so a future
		// migration lands on warm code (paper §3.5).
		other := k.Other()
		if fn, blk := vm.Bin.BlockAt(k, src); fn != nil && blk != nil && blk.Addr[k] == src {
			if _, ok := vm.caches[other].Lookup(blk.Addr[other]); !ok {
				// Best effort; failures surface when actually executed.
				_, _ = vm.translate(other, blk.Addr[other])
			}
		}
	}
	return addr, nil
}

// translate commits one translation unit for src on ISA k. The unit comes
// from the shared unit cache when it holds one for this exact (binary,
// ISA, src, PSR layout, cache state) point, else from the translator, and
// a fresh unit is then published there. Both commit through install.
func (vm *VM) translate(k isa.Kind, src uint32) (uint32, error) {
	fn := vm.Bin.FuncAt(k, src)
	if fn == nil {
		return 0, fmt.Errorf("%w: %#x on %s", ErrNotText, src, k)
	}
	sp := vm.tel.StartSpan("dbt", "translate")
	sp.SetISA(k.String())
	start := time.Now()
	for attempt := 0; attempt < 2; attempt++ {
		base := vm.caches[k].NextAddr(vm.unitAlign())
		var key unitKey
		var u *unitEntry
		if vm.shared != nil {
			key = vm.unitKeyFor(k, src, base)
			if u = vm.shared.lookup(key); u == nil {
				vm.Stats.SharedMisses++
			}
		}
		hit := u != nil
		if !hit {
			var err error
			if u, err = vm.translateUnit(k, fn, src, base); err != nil {
				return 0, err
			}
		}
		fits, err := vm.install(k, src, base, u, hit)
		if err != nil {
			return 0, err
		}
		if !fits {
			vm.flush(k)
			continue
		}
		format := "%d bytes"
		switch {
		case hit:
			vm.Stats.SharedHits++
			vm.Stats.SharedBytesSaved += uint64(len(u.code))
			format = "%d bytes (shared)"
		case vm.shared != nil:
			vm.shared.publish(key, u.clone())
			vm.Stats.SharedInstalls++
		}
		us := float64(time.Since(start)) / float64(time.Microsecond)
		vm.histTranslate[k].Observe(us)
		vm.histUnitBytes[k].Observe(float64(len(u.code)))
		detail := fmt.Sprintf(format, len(u.code))
		vm.tel.Emit(telemetry.Event{
			Type: telemetry.EvTranslate, ISA: k.String(), Addr: src, Cost: us, Detail: detail,
		})
		if sp.Active() {
			sp.SetCostUS(us)
			sp.SetDetail(fmt.Sprintf("src %#x, %s", src, detail))
			sp.End()
		}
		return base, nil
	}
	return 0, fmt.Errorf("dbt: unit for %#x exceeds code cache", src)
}

// onControl implements the modified call/return macro-ops (paper §5.1)
// for execution inside the code cache.
func (vm *VM) onControl(m *machine.Machine, in *isa.Inst, kind machine.ControlKind, target, retAddr uint32) (uint32, uint32, error) {
	k := m.ISA
	if !vm.caches[k].Contains(in.Addr) {
		return target, retAddr, nil
	}
	switch kind {
	case machine.CtlCall:
		meta, ok := vm.calls[k][in.Addr]
		if !ok {
			return 0, 0, vm.kill(k, in.Addr, "unregistered call site %#x", in.Addr)
		}
		cacheRet := in.Addr + uint32(in.Size)
		vm.rats[k].Insert(meta.srcRet, cacheRet)
		return target, meta.srcRet, nil
	case machine.CtlRet:
		if target == proc.ExitAddr {
			return target, retAddr, nil
		}
		if vm.PendingMigration && vm.Migrator != nil {
			if vm.Migrator.Migrate(vm, target, true) {
				vm.PendingMigration = false
				vm.Stats.Migrations++
				vm.tel.Emit(telemetry.Event{
					Type: telemetry.EvPolicy, ISA: vm.P.M.ISA.String(), Addr: target,
					Detail: "phase-migrate",
				})
				return vm.P.M.PC, retAddr, nil
			}
		}
		pc, err := vm.resolveReturn(k, target)
		if err != nil {
			return 0, 0, err
		}
		return pc, retAddr, nil
	}
	return target, retAddr, nil
}

// resolveReturn routes a source return address (x86 ret, ARM bx lr or
// pop {..., pc}) through ISA k's RAT. A miss is either an evicted
// translation (legitimate) or a corrupted return address (attack); the VM
// makes no attempt to distinguish (paper §3.5): it is a code-cache-miss
// security event, resolved in the boundary convention.
func (vm *VM) resolveReturn(k isa.Kind, srcRet uint32) (uint32, error) {
	if cacheRet, ok := vm.rats[k].Lookup(srcRet); ok {
		return cacheRet, nil
	}
	vm.Stats.ReturnMisses++
	vm.tel.Emit(telemetry.Event{Type: telemetry.EvRATMiss, ISA: k.String(), Addr: srcRet})
	return vm.securityEvent(k, srcRet, true)
}

// ApplyReRelocate performs the physical->relocated register marshal in
// software: recovery paths (RAT misses) and the migration engine enter
// freshly translated units that expect pmap's relocated state, while
// returns leave state in the boundary convention.
func (vm *VM) ApplyReRelocate(pmap *psr.Map) error {
	m := vm.P.M
	sp := m.SP()
	var snap [16]uint32
	copy(snap[:], m.Regs[:])
	for _, r := range relocatedRegs(pmap, m.ISA) {
		l := pmap.LocOfReg(r)
		if l.Kind == psr.LocReg {
			m.Regs[l.Reg] = snap[r]
		} else if err := m.Mem.WriteWord(sp+uint32(l.Off), snap[r]); err != nil {
			return err
		}
	}
	return nil
}

// kill terminates the guest under the software-fault-isolation policy
// (§5.1): it counts the kill and traces it at addr on ISA k, with the
// formatted message as the event's detail, and returns that message
// wrapping ErrSecurityKill. Every ErrSecurityKill is raised here.
func (vm *VM) kill(k isa.Kind, addr uint32, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	vm.Stats.Kills++
	vm.tel.Emit(telemetry.Event{Type: telemetry.EvKill, ISA: k.String(), Addr: addr, Detail: msg})
	return fmt.Errorf("%w: %s", ErrSecurityKill, msg)
}

// securityMiss counts and traces a security event: an indirect transfer
// to target on ISA k that missed the code cache.
func (vm *VM) securityMiss(k isa.Kind, target uint32) {
	vm.Stats.CodeCacheMisses++
	vm.Stats.SecurityEvents++
	vm.tel.Emit(telemetry.Event{Type: telemetry.EvSecurity, ISA: k.String(), Addr: target})
}

// securityMigrate draws the migration policy for a security event at
// target (paper §3.5): with probability MigrateProb it traces detail and
// calls migrate, counting a migration that succeeds; otherwise it traces
// "stay". It reports whether execution moved to the other ISA.
func (vm *VM) securityMigrate(k isa.Kind, target uint32, detail string, migrate func() bool) bool {
	if vm.Migrator == nil {
		return false
	}
	stay := vm.policyRng.Float64() >= vm.Cfg.MigrateProb
	if stay {
		detail = "stay"
	}
	vm.tel.Emit(telemetry.Event{Type: telemetry.EvPolicy, ISA: k.String(), Addr: target, Detail: detail})
	if stay || !migrate() {
		return false
	}
	vm.Stats.Migrations++
	vm.Stats.SecurityMigrations++
	return true
}

// securityEvent handles an indirect jump or a return that missed the code
// cache: probabilistically migrate to the other ISA, then translate the
// target (wherever it points — legitimate block or gadget) and continue.
// returnBoundary marks events raised by returns, whose register state is
// in the boundary (physical) convention and must be re-relocated before
// entering a freshly translated continuation.
func (vm *VM) securityEvent(k isa.Kind, srcTarget uint32, returnBoundary bool) (uint32, error) {
	vm.securityMiss(k, srcTarget)
	vm.LastEventTarget = srcTarget
	srcTarget, err := vm.normalizeCodeAddr(k, srcTarget)
	if err != nil {
		return 0, err
	}
	if vm.securityMigrate(k, srcTarget, "security-migrate", func() bool {
		return vm.Migrator.Migrate(vm, srcTarget, returnBoundary)
	}) {
		return vm.P.M.PC, nil
	}
	pc, err := vm.EnsureTranslated(k, srcTarget)
	if err != nil {
		return 0, err
	}
	if returnBoundary {
		if fn := vm.Bin.FuncAt(k, srcTarget); fn != nil {
			if err := vm.ApplyReRelocate(vm.MapOf(fn)[k]); err != nil {
				return 0, err
			}
		}
	}
	return pc, nil
}

// normalizeCodeAddr validates a code address on ISA k and, when it points
// into the other ISA's text (a function pointer materialized before a
// migration), maps it to ISA k via the symbol table. Targets inside either
// code cache or outside both texts are killed (software fault isolation,
// §5.1).
func (vm *VM) normalizeCodeAddr(k isa.Kind, addr uint32) (uint32, error) {
	for _, kk := range isa.Kinds {
		if vm.caches[kk].Contains(addr) {
			return 0, vm.kill(k, addr, "indirect transfer into code cache at %#x", addr)
		}
	}
	if vm.Bin.FuncAt(k, addr) != nil {
		return addr, nil
	}
	other := k.Other()
	if fn := vm.Bin.FuncAt(other, addr); fn != nil {
		// Cross-ISA code pointer: prefer exact block correspondence, then
		// function entry.
		if _, blk := vm.Bin.BlockAt(other, addr); blk != nil && blk.Addr[other] == addr {
			return blk.Addr[k], nil
		}
		return fn.Entry[k], nil
	}
	return 0, vm.kill(k, addr, "indirect transfer to non-text address %#x", addr)
}

// onSyscall dispatches program syscalls and VM traps.
func (vm *VM) onSyscall(m *machine.Machine, vector int32) error {
	k := m.ISA
	switch vector {
	case vecSyscall:
		vm.Stats.SyscallsForwarded++
		return vm.progSyscall(m, vector)
	case vecIndirect, vecChain, vecKill, vecPopPC:
		instrSize := uint32(2) // x86 int imm8
		if k == isa.ARM {
			instrSize = 4
		}
		key := m.PC - instrSize
		meta, ok := vm.traps[k][key]
		if !ok {
			return vm.kill(k, key, "forged or stale trap at %#x", key)
		}
		switch vector {
		case vecKill:
			return vm.kill(k, key, "untranslatable code reached (trap at %#x)", key)
		case vecChain:
			return vm.handleChain(m, k, &meta)
		case vecIndirect:
			return vm.handleIndirect(m, k, &meta)
		case vecPopPC:
			return vm.handlePopPC(m, k)
		}
	}
	return fmt.Errorf("dbt: unknown syscall vector %#x", vector)
}

// handleChain translates the target of a direct branch and patches the
// branch site to jump straight into the cache next time.
func (vm *VM) handleChain(m *machine.Machine, k isa.Kind, meta *trapMeta) error {
	cacheAddr, err := vm.EnsureTranslated(k, meta.srcTarget)
	if err != nil {
		return err
	}
	if meta.gen == vm.gen[k] {
		in := isa.Inst{Op: meta.patchOp, Cond: meta.patchCond, Addr: meta.patchAddr, Target: cacheAddr}
		b, err := isa.Encode(k, &in, vm.xs.patch[:0])
		if err != nil {
			return fmt.Errorf("dbt: patch encode: %w", err)
		}
		vm.xs.patch = b
		vm.caches[k].Patch(vm.P.Mem, meta.patchAddr, b)
		vm.Stats.ChainPatches++
	}
	m.PC = cacheAddr
	return nil
}

// handleIndirect dispatches an indirect call or jump: evaluate the target
// from relocated state, police it, and transfer — marshaling staged
// arguments and updating the RAT for calls.
func (vm *VM) handleIndirect(m *machine.Machine, k isa.Kind, meta *trapMeta) error {
	vm.Stats.IndirectDispatch++
	fn := vm.Bin.Funcs[meta.fnIndex]
	pmap := vm.MapOf(fn)[k]
	var target uint32
	var err error
	if meta.targetSlot != 0 {
		// Indirect call: the target was staged before the boundary marshal.
		target, err = m.Mem.ReadWord(m.SP() + uint32(meta.targetSlot-meta.delta))
	} else {
		target, err = vm.evalOperand(m, pmap, meta.operand, meta.delta, meta.physState)
	}
	if err != nil {
		return fmt.Errorf("dbt: indirect target unavailable: %w", err)
	}
	if target, err = vm.normalizeCodeAddr(k, target); err != nil {
		return err
	}
	cacheAddr, hit := vm.caches[k].Lookup(target)
	if !meta.isCall {
		if !hit {
			// Code-cache miss on an indirect jump: the security event (may
			// migrate; register state is in relocated form).
			if cacheAddr, err = vm.securityEvent(k, target, false); err != nil {
				return err
			}
		}
		vm.caches[m.ISA].MarkIndirectTarget(target)
		m.PC = cacheAddr
		return nil
	}
	// Indirect call: complete the dispatch on the current ISA first.
	genBefore := vm.gen[k]
	if !hit {
		vm.securityMiss(k, target)
		if cacheAddr, err = vm.EnsureTranslated(k, target); err != nil {
			return vm.kill(k, target, "%v", err)
		}
	}
	vm.caches[k].MarkIndirectTarget(target)
	// Relocate staged arguments into the callee's randomized convention,
	// save the source return address per the ISA, update the RAT.
	callee := vm.Bin.FuncAt(k, target)
	if callee != nil && callee.Entry[k] == target {
		cmap := vm.MapOf(callee)[k]
		sp := m.SP()
		for i := 0; i < callee.NumArgs; i++ {
			v, err := m.Mem.ReadWord(sp + uint32(pmap.StageOff+4*int32(i)-meta.delta))
			if err != nil {
				return err
			}
			if err := m.Mem.WriteWord(sp+uint32(cmap.ArgOff[i]), v); err != nil {
				return err
			}
		}
	}
	// Register the return mapping — unless translating the callee flushed
	// the cache, in which case this unit's continuation is gone and the
	// return must take the RAT-miss recovery path instead.
	if vm.gen[k] == genBefore {
		cacheRet := m.PC // instruction after the trap
		vm.rats[m.ISA].Insert(meta.srcRet, cacheRet)
	}
	if err := m.SaveRetAddr(meta.srcRet); err != nil {
		return err
	}
	m.PC = cacheAddr
	// A missing indirect call target is a potential breach: migrate to
	// the other ISA with some probability (paper §3.5), at the callee
	// entry boundary.
	if !hit {
		vm.securityMigrate(k, target, "security-migrate-entry", func() bool {
			return vm.Migrator.MigrateEntry(vm, target)
		})
	}
	return nil
}

// handlePopPC completes an ARM pop-multiple that included PC: the popped
// word is a source return address routed through the RAT.
func (vm *VM) handlePopPC(m *machine.Machine, k isa.Kind) error {
	sp := m.SP()
	srcRet, err := m.Mem.ReadWord(sp)
	if err != nil {
		return err
	}
	m.SetSP(sp + 4)
	if srcRet == proc.ExitAddr {
		m.Halted = true
		vm.P.Exited = true
		vm.P.ExitCode = m.Regs[isa.RetReg(k)]
		return nil
	}
	pc, err := vm.resolveReturn(k, srcRet)
	if err != nil {
		return err
	}
	m.PC = pc
	return nil
}

// evalOperand reads an indirect-transfer target from program state. When
// physState is set (indirect calls marshal to the boundary convention
// before trapping), registers are read physically; otherwise through the
// relocation map. Frame-resident values are always read through the map.
func (vm *VM) evalOperand(m *machine.Machine, pmap *psr.Map, o isa.Operand, delta int32, physState bool) (uint32, error) {
	sp := m.SP()
	regVal := func(r isa.Reg) (uint32, error) {
		if physState || r == isa.StackReg(m.ISA) {
			return m.Regs[r], nil
		}
		l := pmap.LocOfReg(r)
		if l.Kind == psr.LocReg {
			return m.Regs[l.Reg], nil
		}
		return m.Mem.ReadWord(sp + uint32(l.Off-delta))
	}
	switch o.Kind {
	case isa.OpdReg:
		return regVal(o.Reg)
	case isa.OpdMem:
		mr := o.Mem
		if mr.HasBase && mr.Base == isa.StackReg(m.ISA) && !mr.HasIndex {
			xc := mr.Disp + delta
			off := remapFrameOff(pmap, xc, nil, false)
			return m.Mem.ReadWord(sp + uint32(off-delta))
		}
		var ea uint32 = uint32(mr.Disp)
		if mr.HasBase {
			v, err := regVal(mr.Base)
			if err != nil {
				return 0, err
			}
			ea += v
		}
		if mr.HasIndex {
			v, err := regVal(mr.Index)
			if err != nil {
				return 0, err
			}
			s := uint32(mr.Scale)
			if s == 0 {
				s = 1
			}
			ea += v * s
		}
		return m.Mem.ReadWord(ea)
	}
	return 0, fmt.Errorf("dbt: bad indirect operand")
}
