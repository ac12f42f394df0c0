package dbt

import (
	"fmt"
	"slices"
	"sync"

	"hipstr/internal/isa"
)

// UnitCache is the process-wide content-addressed translation cache: a
// concurrent map from everything that can influence a translation unit's
// bytes to the immutable finished unit. In a fleet most guests run the
// same binaries, so the Nth VM to need a unit installs the shared copy
// (memcpy + metadata replay) instead of re-running the translator — the
// dominant cost of spawn, respawn, and cache-churn regimes (PR 4).
//
// Correctness rests on the key capturing *all* translation inputs:
//
//   - bin: fatbin.Binary.ContentHash — source bytes and symbol table.
//   - k/src: target ISA and source address of the unit.
//   - layout: the PSR layout class — randomizer seed, the psr-relevant
//     config (OptLevel, RandPages), and the VM's map-build digest. The
//     randomizer is a sequential RNG, so two VMs have identical relocation
//     maps i-f-f they share a seed AND built their maps in the same order;
//     the digest folds that order.
//   - env: code-cache geometry and content — cache size, the unit's base
//     address (translated code is position-dependent), and the cache's
//     chain digest (emitChain/emitDirectCall branch straight to targets
//     that are already warm, so emitted bytes depend on exactly which
//     units were committed, in order, since the last flush).
//
// A hit and a cold translation commit the same base-relative unit through
// one install (commit, covered ranges, stub start, trap/call registration,
// the translation count); a hit only adds the replay of the map builds
// (which advance the shared RNG stream) and cache-lookup counts its
// translator made. So a VM that hits is byte- and stats-identical to one
// that translated. That equivalence is what keeps experiment tables
// deterministic with a process-global cache shared across concurrently
// running cells.
type UnitCache struct {
	mu      sync.Mutex
	entries map[unitKey]*unitEntry
	fifo    []unitKey
	bytes   uint64
	cap     uint64

	hits, misses, installs, bytesSaved uint64
}

// unitKey identifies one translation unit by its full input set.
type unitKey struct {
	bin    uint64
	k      isa.Kind
	src    uint32
	layout uint64
	env    uint64
}

// unitEntry is one finished translation unit, relative to the cache
// address it was assembled for, plus everything needed to replay the
// translator's side effects on install. It is immutable once published.
type unitEntry struct {
	code    []byte
	stubOff uint32 // deferred trap-stub region start, relative to unit base
	traps   []unitTrap
	calls   []unitCall
	covered [][2]uint32
	// mapBuilds lists the functions (by symbol-table index) whose
	// relocation maps the translator built, in order. Installing VMs
	// replay them so their PSR RNG stream advances exactly as the
	// publisher's did.
	mapBuilds []int
	// lookupDelta/hitDelta are the code-cache Lookup counter effects of
	// the translator's warm-target probes, replayed for stats parity.
	lookupDelta, hitDelta uint64
}

// clone returns a copy of u that shares no storage with it, for
// publishing the VM's scratch unit.
func (u *unitEntry) clone() *unitEntry {
	c := *u
	c.code = slices.Clone(u.code)
	c.traps = slices.Clone(u.traps)
	c.calls = slices.Clone(u.calls)
	c.covered = slices.Clone(u.covered)
	c.mapBuilds = slices.Clone(u.mapBuilds)
	return &c
}

type unitTrap struct {
	off      uint32 // trap site, relative to unit base
	patchOff uint32 // patch site, relative to unit base (chain traps)
	hasPatch bool
	meta     trapMeta // gen and patchAddr are filled at install time
}

type unitCall struct {
	off    uint32
	srcRet uint32
}

// DefaultUnitCacheBytes bounds the default shared cache's code bytes.
const DefaultUnitCacheBytes = 64 << 20

// SharedUnits is the process-wide default cache. Config.SharedUnits
// overrides it per VM; Config.NoSharedUnits opts a VM out entirely.
var SharedUnits = NewUnitCache(DefaultUnitCacheBytes)

// NewUnitCache returns an empty cache bounded to capBytes of unit code
// (oldest entries evict first).
func NewUnitCache(capBytes uint64) *UnitCache {
	return &UnitCache{entries: make(map[unitKey]*unitEntry), cap: capBytes}
}

// UnitCacheStats is a point-in-time snapshot of the cache's counters.
type UnitCacheStats struct {
	Hits       uint64 // translations served from the shared cache
	Misses     uint64 // consultations that found nothing
	Installs   uint64 // units published into the cache
	BytesSaved uint64 // code bytes whose re-translation a hit avoided
	Entries    int
	Bytes      uint64 // code bytes currently held
}

// Stats returns the cache's counters.
func (u *UnitCache) Stats() UnitCacheStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return UnitCacheStats{
		Hits: u.hits, Misses: u.misses, Installs: u.installs,
		BytesSaved: u.bytesSaved, Entries: len(u.entries), Bytes: u.bytes,
	}
}

// lookup returns the unit for key, counting the hit or miss.
func (u *UnitCache) lookup(key unitKey) *unitEntry {
	u.mu.Lock()
	defer u.mu.Unlock()
	e := u.entries[key]
	if e == nil {
		u.misses++
		return nil
	}
	u.hits++
	u.bytesSaved += uint64(len(e.code))
	return e
}

// publish stores a finished unit, evicting oldest entries past capacity.
// First publisher wins; a racing duplicate (two VMs translating the same
// unit concurrently) is dropped — entries are interchangeable by
// construction.
func (u *UnitCache) publish(key unitKey, e *unitEntry) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, dup := u.entries[key]; dup {
		return
	}
	u.entries[key] = e
	u.fifo = append(u.fifo, key)
	u.bytes += uint64(len(e.code))
	u.installs++
	for u.bytes > u.cap && len(u.fifo) > 0 {
		old := u.fifo[0]
		u.fifo = u.fifo[1:]
		if oe, ok := u.entries[old]; ok {
			u.bytes -= uint64(len(oe.code))
			delete(u.entries, old)
		}
	}
}

// digestInit/foldDigest implement the running FNV-1a folds used for the
// map-build and chain digests and for packing the key's layout/env words.
const digestInit uint64 = 0xcbf29ce484222325

func foldDigest(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= (v >> i) & 0xff
		h *= 0x100000001b3
	}
	return h
}

// install commits unit u, assembled for cache address base, into ISA k's
// code cache: it reserves and commits the bytes, records the covered
// source ranges and the stub start, registers the unit's traps (under the
// cache's current generation) and call sites, and counts the translation.
// replay marks a shared-cache hit, which also redoes the map builds (they
// advance the PSR RNG stream) and warm-target lookups of the translator
// that made the unit, so the VM ends up exactly as if it had translated
// the unit itself. It reports false when the unit does not fit before a
// flush.
func (vm *VM) install(k isa.Kind, src, base uint32, u *unitEntry, replay bool) (bool, error) {
	c := vm.caches[k]
	addr, ok := c.Reserve(uint32(len(u.code)), vm.unitAlign())
	if !ok {
		return false, nil
	}
	if addr != base {
		return false, fmt.Errorf("dbt: allocation raced: %#x != %#x", addr, base)
	}
	c.Commit(vm.P.Mem, src, addr, u.code, u.stubOff)
	c.AddCovered(u.covered)
	if replay {
		for _, idx := range u.mapBuilds {
			vm.MapOf(vm.Bin.Funcs[idx])
		}
		c.Lookups += u.lookupDelta
		c.Hits += u.hitDelta
	}
	for _, ut := range u.traps {
		meta := ut.meta
		meta.gen = vm.gen[k]
		if ut.hasPatch {
			meta.patchAddr = addr + ut.patchOff
		}
		vm.traps[k][addr+ut.off] = meta
	}
	for _, uc := range u.calls {
		vm.calls[k][addr+uc.off] = callMeta{srcRet: uc.srcRet}
	}
	vm.Stats.Translations[k]++
	return true, nil
}

// unitKeyFor computes the content-addressed key for translating src on ISA
// k at cache address base under the VM's current layout and cache state.
func (vm *VM) unitKeyFor(k isa.Kind, src, base uint32) unitKey {
	layout := foldDigest(digestInit, uint64(vm.layoutSeed))
	layout = foldDigest(layout, uint64(vm.Cfg.Opt)|uint64(vm.Cfg.RandPages)<<8)
	layout = foldDigest(layout, vm.mapDigest)
	env := foldDigest(digestInit, uint64(vm.Cfg.CodeCacheSize))
	env = foldDigest(env, uint64(base))
	env = foldDigest(env, vm.caches[k].chain)
	return unitKey{bin: vm.Bin.ContentHash(), k: k, src: src, layout: layout, env: env}
}
