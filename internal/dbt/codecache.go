// Package dbt implements the PSR virtual machine: a classic just-in-time
// dynamic binary translator (paper §3.4, Figure 2) that translates one
// basic block at a time, applying the function's relocation map to every
// instruction, and polices all indirect control transfers. Together with
// the hardware-modeled Return Address Table it forms the runtime half of
// Program State Relocation.
package dbt

import (
	"fmt"
	"sort"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/mem"
)

// CodeCache is the translated-code region of one ISA. Translation units
// are bump-allocated; when the cache fills, it is flushed wholesale (the
// classic JIT fallback), which evicts every translation and the RAT
// entries pointing into it.
type CodeCache struct {
	ISA  isa.Kind
	Base uint32
	Size uint32

	cur uint32
	// srcToCache maps source block start addresses to their translation.
	srcToCache map[uint32]uint32
	// cacheToSrc is the reverse map; UnitAt reads it to attribute
	// profiler samples in translated code back to guest functions.
	cacheToSrc map[uint32]uint32
	// indirectTargets records source addresses that became known indirect
	// jump targets or call sites — the attacker's only migration-free
	// entry points (paper §3.5).
	indirectTargets map[uint32]bool
	// covered records the source address ranges whose translations are
	// live in the cache (superblock formation inlines code into units, so
	// coverage is broader than the unit-entry map).
	covered [][2]uint32
	// units records committed unit start addresses. The bump allocator
	// only grows between flushes, so commits append in ascending order and
	// UnitAt can binary-search for the unit owning any cache PC.
	units []uint32
	// stubStarts parallels units: where each unit's deferred trap-stub
	// region (chain dispatch stubs emitted after the body) begins. A unit
	// with no stubs records its end address, so nothing classifies as
	// stub.
	stubStarts []uint32
	// chain digests the (src, cacheAddr) commit sequence since the last
	// flush. The translator emits direct jumps to already-warm targets, so
	// a unit's bytes depend on exactly this sequence; the shared unit
	// cache folds it into its content-addressed key.
	chain uint64

	Flushes int
	// Lookups and Hits count Lookup calls cumulatively (they survive
	// flushes, like the RAT's counters) for hit-ratio telemetry.
	Lookups uint64
	Hits    uint64

	// OnFlush, when set, runs after every Flush with the byte range the
	// flush evicted ([base, base+size)). The PSR VM wires it to the
	// memory's ranged code-generation bump so interpreter block caches
	// drop predecoded blocks of the evicted translations — and only
	// those; blocks for the other ISA's cache and for program text
	// survive.
	OnFlush func(base, size uint32)
}

// NewCodeCache returns an empty code cache for ISA k.
func NewCodeCache(k isa.Kind, size uint32) *CodeCache {
	return &CodeCache{
		ISA:             k,
		Base:            fatbin.CacheBase(k),
		Size:            size,
		srcToCache:      make(map[uint32]uint32),
		cacheToSrc:      make(map[uint32]uint32),
		indirectTargets: make(map[uint32]bool),
	}
}

// Lookup returns the cache address of the translation of src.
func (c *CodeCache) Lookup(src uint32) (uint32, bool) {
	c.Lookups++
	a, ok := c.srcToCache[src]
	if ok {
		c.Hits++
	}
	return a, ok
}

// HitRatio returns the fraction of Lookup calls that hit (0 before any).
func (c *CodeCache) HitRatio() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Lookups)
}

// UnitAt returns the source address of the translation unit whose code
// contains cache address addr (any PC inside the unit, not just its
// start). The sampling profiler uses it to attribute cycles spent in
// translated code back to guest functions. It mutates no counters: a
// profiler probe must not perturb the hit-ratio telemetry it is measuring.
func (c *CodeCache) UnitAt(addr uint32) (uint32, bool) {
	if len(c.units) == 0 || !c.Contains(addr) || addr >= c.Base+c.cur {
		return 0, false
	}
	// First unit starting strictly after addr; its predecessor owns addr.
	i := sort.Search(len(c.units), func(i int) bool { return c.units[i] > addr })
	if i == 0 {
		return 0, false
	}
	src, ok := c.cacheToSrc[c.units[i-1]]
	return src, ok
}

// Contains reports whether addr falls inside the cache region.
func (c *CodeCache) Contains(addr uint32) bool {
	return addr >= c.Base && addr-c.Base < c.Size
}

// Used reports the bytes currently allocated.
func (c *CodeCache) Used() uint32 { return c.cur }

// NumUnits reports the number of live translation units.
func (c *CodeCache) NumUnits() int { return len(c.srcToCache) }

// NextAddr returns the address the next Reserve with the same alignment
// will yield, letting the translator assemble position-dependent code
// before committing.
func (c *CodeCache) NextAddr(align uint32) uint32 {
	return c.Base + ((c.cur + align - 1) &^ (align - 1))
}

// Reserve allocates n bytes, reporting false when the cache must be
// flushed first. align must be a power of two.
func (c *CodeCache) Reserve(n, align uint32) (uint32, bool) {
	start := (c.cur + align - 1) &^ (align - 1)
	if start+n > c.Size {
		return 0, false
	}
	c.cur = start + n
	return c.Base + start, true
}

// Commit records a completed translation unit, whose trap-stub region
// starts stubOff bytes in, and writes its bytes into memory (the cache
// region is mapped read+execute; the VM writes with loader privilege,
// modeling W^X with a privileged JIT writer).
func (c *CodeCache) Commit(m *mem.Memory, src, cacheAddr uint32, code []byte, stubOff uint32) {
	m.WriteForce(cacheAddr, code)
	c.srcToCache[src] = cacheAddr
	c.cacheToSrc[cacheAddr] = src
	c.units = append(c.units, cacheAddr)
	c.stubStarts = append(c.stubStarts, cacheAddr+stubOff)
	c.chain = foldDigest(foldDigest(c.chain, uint64(src)), uint64(cacheAddr))
}

// StubAt reports whether cache address addr falls inside its unit's
// trap-stub region — VM dispatch overhead rather than translated guest
// code. Like UnitAt it mutates no counters.
func (c *CodeCache) StubAt(addr uint32) bool {
	if len(c.units) == 0 || !c.Contains(addr) || addr >= c.Base+c.cur {
		return false
	}
	i := sort.Search(len(c.units), func(i int) bool { return c.units[i] > addr })
	if i == 0 {
		return false
	}
	return addr >= c.stubStarts[i-1]
}

// Patch rewrites bytes inside a committed unit (branch chaining).
func (c *CodeCache) Patch(m *mem.Memory, addr uint32, b []byte) {
	if !c.Contains(addr) {
		panic(fmt.Sprintf("dbt: patch outside cache: %#x", addr))
	}
	m.WriteForce(addr, b)
}

// AddCovered records source ranges whose translation now lives in the
// cache.
func (c *CodeCache) AddCovered(ranges [][2]uint32) {
	c.covered = append(c.covered, ranges...)
}

// Covered reports whether some live translation includes source address
// addr — the JIT-ROP attacker's "discoverable through a cache leak" test.
func (c *CodeCache) Covered(addr uint32) bool {
	for _, r := range c.covered {
		if addr >= r[0] && addr < r[1] {
			return true
		}
	}
	return false
}

// MarkIndirectTarget records src as a legitimate indirect target or call
// site known to the VM's internal structures.
func (c *CodeCache) MarkIndirectTarget(src uint32) { c.indirectTargets[src] = true }

// IsIndirectTarget reports whether src was recorded by MarkIndirectTarget.
func (c *CodeCache) IsIndirectTarget(src uint32) bool { return c.indirectTargets[src] }

// IndirectTargetCount returns the number of recorded indirect targets.
func (c *CodeCache) IndirectTargetCount() int { return len(c.indirectTargets) }

// TranslatedSources returns every source address with a live translation.
func (c *CodeCache) TranslatedSources() []uint32 {
	out := make([]uint32, 0, len(c.srcToCache))
	for s := range c.srcToCache {
		out = append(out, s)
	}
	return out
}

// Flush evicts everything, reporting the previously allocated byte range
// to OnFlush so downstream caches can invalidate just this region.
func (c *CodeCache) Flush() {
	used := c.cur
	c.cur = 0
	c.srcToCache = make(map[uint32]uint32)
	c.cacheToSrc = make(map[uint32]uint32)
	c.indirectTargets = make(map[uint32]bool)
	c.covered = nil
	c.units = nil
	c.stubStarts = nil
	c.chain = 0
	c.Flushes++
	if c.OnFlush != nil {
		c.OnFlush(c.Base, used)
	}
}

// Clone deep-copies the cache's allocation state, maps, and counters.
// OnFlush is left nil; the owning VM rewires it to its own memory. Fork
// uses it: the clone describes the same committed bytes, which the forked
// Memory aliases copy-on-write.
func (c *CodeCache) Clone() *CodeCache {
	n := &CodeCache{
		ISA: c.ISA, Base: c.Base, Size: c.Size, cur: c.cur,
		srcToCache:      make(map[uint32]uint32, len(c.srcToCache)),
		cacheToSrc:      make(map[uint32]uint32, len(c.cacheToSrc)),
		indirectTargets: make(map[uint32]bool, len(c.indirectTargets)),
		covered:         append([][2]uint32(nil), c.covered...),
		units:           append([]uint32(nil), c.units...),
		stubStarts:      append([]uint32(nil), c.stubStarts...),
		chain:           c.chain,
		Flushes:         c.Flushes,
		Lookups:         c.Lookups,
		Hits:            c.Hits,
	}
	for k, v := range c.srcToCache {
		n.srcToCache[k] = v
	}
	for k, v := range c.cacheToSrc {
		n.cacheToSrc[k] = v
	}
	for k, v := range c.indirectTargets {
		n.indirectTargets[k] = v
	}
	return n
}

// RAT is the hardware-maintained Return Address Table (paper §5.1): a
// bounded table mapping source return addresses to their code cache
// translations. The call macro-op inserts entries; the return macro-op
// performs the lookup with a 1-cycle penalty. A miss traps to the VM.
type RAT struct {
	size    int
	entries map[uint32]uint32
	fifo    []uint32

	Lookups   uint64
	Misses    uint64
	Evictions uint64
}

// NewRAT returns a RAT holding size entries.
func NewRAT(size int) *RAT {
	return &RAT{size: size, entries: make(map[uint32]uint32, size)}
}

// Size returns the RAT capacity.
func (r *RAT) Size() int { return r.size }

// Entries returns the number of live entries.
func (r *RAT) Entries() int { return len(r.entries) }

// HitRatio returns the fraction of lookups that hit (0 before any).
func (r *RAT) HitRatio() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.Lookups-r.Misses) / float64(r.Lookups)
}

// Insert records srcRet -> cacheRet, evicting the oldest entry when full.
func (r *RAT) Insert(srcRet, cacheRet uint32) {
	if _, ok := r.entries[srcRet]; !ok {
		for len(r.entries) >= r.size && len(r.fifo) > 0 {
			old := r.fifo[0]
			r.fifo = r.fifo[1:]
			if _, live := r.entries[old]; live {
				delete(r.entries, old)
				r.Evictions++
			}
		}
		r.fifo = append(r.fifo, srcRet)
	}
	r.entries[srcRet] = cacheRet
}

// Lookup translates a source return address, counting the miss on failure.
func (r *RAT) Lookup(srcRet uint32) (uint32, bool) {
	r.Lookups++
	a, ok := r.entries[srcRet]
	if !ok {
		r.Misses++
	}
	return a, ok
}

// Flush clears the table (code cache flush invalidates its targets).
func (r *RAT) Flush() {
	r.entries = make(map[uint32]uint32, r.size)
	r.fifo = nil
}

// Clone deep-copies the table, its FIFO order, and its counters. Forked
// VMs keep the prototype's entries: cache addresses are identical across
// a fork (same committed units at the same offsets), so every entry stays
// valid.
func (r *RAT) Clone() *RAT {
	n := &RAT{
		size:    r.size,
		entries: make(map[uint32]uint32, len(r.entries)),
		fifo:    append([]uint32(nil), r.fifo...),
		Lookups: r.Lookups, Misses: r.Misses, Evictions: r.Evictions,
	}
	for k, v := range r.entries {
		n.entries[k] = v
	}
	return n
}
