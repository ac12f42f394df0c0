package machine

import (
	"fmt"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
	"hipstr/internal/telemetry"
)

// BlockCap is the maximum number of instructions predecoded into one basic
// block. Blocks normally end at a control transfer; straight-line runs
// longer than this are split, which only costs an extra cache lookup at the
// seam.
const BlockCap = 64

// maxCachedBlocks bounds each per-ISA block map. Real working sets are a
// few hundred blocks; the cap only matters for adversarial workloads (a
// JIT-ROP sweep decoding at every byte offset) where it keeps the cache
// from outgrowing the program it simulates.
const maxCachedBlocks = 1 << 14

// Block is a predecoded straight-line run of instructions. Insts[0].Addr is
// the block's start PC; execution falls off the end when the terminator is
// a not-taken branch or the block was split at BlockCap.
type Block struct {
	Insts []isa.Inst

	// Fused is the superinstruction lowering of Insts (see isa.FuseBlock):
	// the batched dispatch path executes these entries, falling back to
	// Insts for hooks, fault reporting, and timing commits.
	Fused []isa.FusedInst

	// timing is the block's timing summary (see isa.SummarizeBlock),
	// built on the first whole-block commit with a Timing attached. It is
	// a pointer so blocks that never run observed carry one word for it.
	timing *isa.BlockTiming

	// shared marks a block whose Insts, Fused and timing belong to a
	// SharedBlocks table: they are never written or recycled.
	shared bool

	// [lo, hi) is the byte span the block decoded from (at most BlockCap ×
	// MaxInstLen ≤ PageSize bytes, so at most two pages). The cache's
	// per-page index uses the page span to find candidate blocks and the
	// byte span to evict exactly the ones a write overlapped.
	lo, hi uint32

	// next chains this block to the successor most recently dispatched
	// after it, letting steady-state loops bypass the block-map lookup.
	// A link is trusted only when nextPC and nextISA match the machine
	// and linkEpoch equals the cache's current eviction epoch — any
	// eviction bumps the epoch, which invalidates every link at once
	// without walking blocks.
	next      *Block
	nextPC    uint32
	nextISA   isa.Kind
	linkEpoch uint64
}

func (b *Block) pageLo() uint32 { return b.lo / mem.PageSize }
func (b *Block) pageHi() uint32 { return (b.hi - 1) / mem.PageSize }

// overlaps reports whether the block's byte span intersects [addr, addr+size).
func (b *Block) overlaps(addr, size uint32) bool {
	return uint64(b.hi) > uint64(addr) && uint64(b.lo) < uint64(addr)+uint64(size)
}

// BlockCacheStats is a snapshot of the interpreter block cache counters.
type BlockCacheStats struct {
	Hits   uint64 // block dispatches served from cache
	Misses uint64 // block refills (fetch + decode)
	// SharedHits counts the refills a SharedBlocks table served without
	// decoding; they are counted in Misses too.
	SharedHits uint64
	// Invalidations is the legacy invalidation counter: every event that
	// evicted at least one block. It equals PartialInvalidations +
	// FullInvalidations, so dashboards and metricsdiff snapshots recorded
	// before the partial/full split stay comparable.
	Invalidations        uint64
	PartialInvalidations uint64 // write-log replays that evicted blocks
	// FullInvalidations counts whole-cache drops: the memory's write log
	// rotated past the cache's sync point (more than mem.CodeWriteLogSize
	// code writes between two block dispatches), so every block was
	// dropped and is rebuilt wholesale.
	FullInvalidations uint64
	BlocksEvicted     uint64 // blocks dropped across all invalidations
	Blocks            int    // blocks currently cached (both ISAs)
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any dispatch.
func (s BlockCacheStats) HitRatio() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// blockRef names one cached block from a page's index entry.
type blockRef struct {
	pc uint32
	k  isa.Kind
}

// blockCache memoizes decoded basic blocks per ISA, keyed by start PC, and
// guards them with the memory's code generation. The dispatch fast path
// is one integer compare against that generation; when it moves, the
// cache replays the memory's code-write log and evicts exactly the blocks
// whose byte span a logged write overlapped, using its per-page index to
// find candidates. If the log rotated past the cache's sync point, the
// cache can no longer tell what changed and drops everything. This keeps
// the block cache hot under DBT translation churn: a translation commit
// or chain patch rewrites a few code-cache bytes, so predecodes of
// untouched code — including the other ISA's — survive.
//
// Blocks are keyed per ISA because PSR migration retargets m.ISA mid-run
// (always at a control transfer, hence always at a block boundary), and the
// same address range decodes differently under each ISA's twin text.
type blockCache struct {
	blocks [2]map[uint32]*Block  // indexed by isa.Kind
	byPage map[uint32][]blockRef // cached blocks overlapping each page
	gen    uint64                // mem.CodeGen value the cache is synced to
	win    []byte                // reusable fetch window for refills
	shared *SharedBlocks         // predecodes shared with sibling forks, or nil
	// insts and fused are the refill's decode and fusion scratch, BlockCap
	// slots each: a refill decodes and fuses into them, then keeps the
	// block in storage sized to it (see keep), so no refill grows a slice.
	insts []isa.Inst
	fused []isa.FusedInst
	// free recycles evicted blocks' instruction storage into refills
	// (freeFused and freeTiming do the same for their fused lowerings and
	// timing summaries). Hooks receive *isa.Inst only for the duration of
	// a call and must not retain them (see Run), so storage of a dropped
	// block cannot be observed again. Under DBT churn this keeps
	// steady-state refills from hitting the allocator at all.
	free       [][]isa.Inst
	freeFused  [][]isa.FusedInst
	freeTiming []*isa.BlockTiming

	hits, misses, sharedHits  uint64
	partialInvals, fullInvals uint64
	evicted                   uint64

	// epoch counts eviction events; block successor links record the
	// epoch they were made in and die when it moves (see Block.next).
	epoch uint64

	// Fusion/batching counters (see FusionStats).
	pairsFused    uint64
	batchedBlocks uint64
	exactBlocks   uint64
	commits       uint64
}

// maxFreeInsts bounds the recycled-storage pool.
const maxFreeInsts = 512

// recycle returns an evicted block's instruction storage to the pool,
// unless a SharedBlocks table owns it.
func (bc *blockCache) recycle(b *Block) {
	if b.shared {
		return
	}
	if b.Insts != nil && len(bc.free) < maxFreeInsts {
		bc.free = append(bc.free, b.Insts[:0])
		b.Insts = nil
	}
	if b.Fused != nil && len(bc.freeFused) < maxFreeInsts {
		bc.freeFused = append(bc.freeFused, b.Fused[:0])
		b.Fused = nil
	}
	if b.timing != nil && len(bc.freeTiming) < maxFreeInsts {
		bc.freeTiming = append(bc.freeTiming, b.timing)
		b.timing = nil
	}
}

// summarize builds the timing summary of insts, reusing a recycled
// summary and its charge storage when the pool has one.
func (bc *blockCache) summarize(insts []isa.Inst) *isa.BlockTiming {
	var bt *isa.BlockTiming
	if l := len(bc.freeTiming); l > 0 {
		bt = bc.freeTiming[l-1]
		bc.freeTiming = bc.freeTiming[:l-1]
	} else {
		bt = new(isa.BlockTiming)
	}
	*bt = isa.SummarizeBlock(insts, bt.Charges[:0])
	return bt
}

// FusionStats is a snapshot of the superinstruction fusion and batched
// dispatch counters.
type FusionStats struct {
	PairsFused    uint64 // instruction pairs collapsed at predecode time
	BatchedBlocks uint64 // block dispatches through the fused fast path
	ExactBlocks   uint64 // budget tails single-stepped through Step (≤ 1 per Run)
	Commits       uint64 // fused-block timing commits (Step's are not counted)
}

// FusionStats returns a snapshot of the machine's fusion counters.
func (m *Machine) FusionStats() FusionStats {
	bc := &m.blocks
	return FusionStats{
		PairsFused:    bc.pairsFused,
		BatchedBlocks: bc.batchedBlocks,
		ExactBlocks:   bc.exactBlocks,
		Commits:       bc.commits,
	}
}

// PublishStats mirrors the block-cache and fusion counters into r as the
// machine.blockcache.* and machine.fusion.* series. Collectors call it at
// snapshot time, on the goroutine that runs the machine.
func (m *Machine) PublishStats(r *telemetry.Registry) {
	bs := m.BlockStats()
	r.Counter("machine.blockcache.hits").Set(bs.Hits)
	r.Counter("machine.blockcache.misses").Set(bs.Misses)
	r.Counter("machine.blockcache.shared_hits").Set(bs.SharedHits)
	// The legacy counter is the sum of the partial/full split, so
	// snapshots taken before the split stay metricsdiff-comparable.
	r.Counter("machine.blockcache.invalidations").Set(bs.Invalidations)
	r.Counter("machine.blockcache.invalidations.partial").Set(bs.PartialInvalidations)
	r.Counter("machine.blockcache.invalidations.full").Set(bs.FullInvalidations)
	r.Counter("machine.blockcache.evicted").Set(bs.BlocksEvicted)
	r.Gauge("machine.blockcache.blocks").Set(float64(bs.Blocks))
	r.Gauge("machine.blockcache.hit_ratio").Set(bs.HitRatio())
	fs := m.FusionStats()
	r.Counter("machine.fusion.pairs").Set(fs.PairsFused)
	r.Counter("machine.fusion.blocks.batched").Set(fs.BatchedBlocks)
	r.Counter("machine.fusion.blocks.exact").Set(fs.ExactBlocks)
	r.Counter("machine.fusion.commits").Set(fs.Commits)
}

// BlockStats returns a snapshot of the machine's block-cache counters.
func (m *Machine) BlockStats() BlockCacheStats {
	bc := &m.blocks
	return BlockCacheStats{
		Hits:                 bc.hits,
		Misses:               bc.misses,
		SharedHits:           bc.sharedHits,
		Invalidations:        bc.partialInvals + bc.fullInvals,
		PartialInvalidations: bc.partialInvals,
		FullInvalidations:    bc.fullInvals,
		BlocksEvicted:        bc.evicted,
		Blocks:               len(bc.blocks[isa.X86]) + len(bc.blocks[isa.ARM]),
	}
}

// reconcile adopts generation g, evicting whatever the move invalidated.
// When the memory's write log still holds every generation in (bc.gen, g],
// it evicts only the blocks whose byte span a logged write overlapped; a
// DBT translation commit appends fresh bytes past every decoded block, so
// this usually evicts nothing at all. Otherwise the log rotated past the
// cache's sync point and every block is dropped.
//
// An empty cache adopting its first generation is not counted — only
// actual drops of decoded blocks are invalidations.
func (bc *blockCache) reconcile(mm *mem.Memory, g uint64) {
	if len(bc.byPage) == 0 {
		bc.gen = g
		return
	}
	if evicted, ok := bc.reconcileRanged(mm, g); !ok {
		bc.dropAll()
		bc.fullInvals++
	} else if evicted > 0 {
		bc.partialInvals++
	}
	bc.gen = g
}

// reconcileRanged replays the memory's write log from bc.gen forward,
// evicting blocks byte-overlapped by each logged mutation. It reports
// false when any generation in the window has rotated out of the log, in
// which case the caller must drop everything.
func (bc *blockCache) reconcileRanged(mm *mem.Memory, g uint64) (int, bool) {
	if g-bc.gen > mem.CodeWriteLogSize {
		return 0, false
	}
	n := 0
	for gg := bc.gen + 1; gg <= g; gg++ {
		w, ok := mm.CodeWriteAt(gg)
		if !ok {
			return n, false
		}
		n += bc.evictRange(w.Addr, w.Size)
	}
	return n, true
}

// evictRange drops every block whose byte span intersects [addr,
// addr+size) and returns how many were dropped.
func (bc *blockCache) evictRange(addr, size uint32) int {
	if size == 0 {
		return 0
	}
	first := addr / mem.PageSize
	last := (addr + size - 1) / mem.PageSize
	n := 0
	for pn := first; pn <= last; pn++ {
		refs, ok := bc.byPage[pn]
		if !ok {
			continue
		}
		had := len(refs)
		for i := 0; i < len(refs); {
			ref := refs[i]
			b := bc.blocks[ref.k][ref.pc]
			if b == nil || !b.overlaps(addr, size) {
				i++
				continue
			}
			delete(bc.blocks[ref.k], ref.pc)
			bc.recycle(b)
			n++
			// Unlink from every page the block spans; on this page, swap
			// with the last ref and revisit index i.
			for q := b.pageLo(); q <= b.pageHi(); q++ {
				if q == pn {
					refs[i] = refs[len(refs)-1]
					refs = refs[:len(refs)-1]
				} else {
					bc.dropRef(q, ref)
				}
			}
		}
		if len(refs) == 0 {
			delete(bc.byPage, pn)
		} else if len(refs) < had {
			bc.byPage[pn] = refs
		}
	}
	if n > 0 {
		bc.epoch++
	}
	bc.evicted += uint64(n)
	return n
}

// dropAll discards every cached block and the page index, recycling the
// blocks' instruction storage.
func (bc *blockCache) dropAll() {
	bc.epoch++
	for k := range bc.blocks {
		for _, b := range bc.blocks[k] {
			bc.recycle(b)
		}
	}
	bc.evicted += uint64(len(bc.blocks[0]) + len(bc.blocks[1]))
	bc.blocks[0] = nil
	bc.blocks[1] = nil
	bc.byPage = nil
}

// dropRef unlinks one block reference from page pn's index entry, removing
// the entry when it empties.
func (bc *blockCache) dropRef(pn uint32, ref blockRef) {
	refs := bc.byPage[pn]
	for i, r := range refs {
		if r == ref {
			refs[i] = refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			break
		}
	}
	if len(refs) == 0 {
		delete(bc.byPage, pn)
	} else {
		bc.byPage[pn] = refs
	}
}

// alive reports whether blk is still the cached block for (k, pc) after a
// reconcile — the dispatch loop uses it to keep executing a block that
// survived a generation move instead of breaking out to re-decode.
func (bc *blockCache) alive(k isa.Kind, pc uint32, blk *Block) bool {
	return bc.blocks[k][pc] == blk
}

// lookup returns the cached block starting at pc under ISA k, or nil.
func (bc *blockCache) lookup(k isa.Kind, pc uint32) *Block {
	if blk := bc.blocks[k]; blk != nil {
		if b, ok := blk[pc]; ok {
			bc.hits++
			return b
		}
	}
	return nil
}

// refill fetches and decodes a new block at m.PC and caches it, indexing
// it under every page it spans. With a SharedBlocks table it tries the
// table before decoding, and publishes what it decodes. The caller (Run)
// guarantees the cache is synced to the current generation, so the
// decoded bytes are exactly what generation bc.gen holds. Fetch and decode
// failures are wrapped exactly as the per-step slow path wraps them, so
// callers see identical errors whether or not the cache is in play.
func (bc *blockCache) refill(m *Machine) (*Block, error) {
	if bc.win == nil {
		bc.win = make([]byte, BlockCap*MaxInstLen)
		bc.insts = make([]isa.Inst, 0, BlockCap)
		bc.fused = make([]isa.FusedInst, 0, BlockCap)
	}
	n, err := m.Mem.FetchInto(m.PC, bc.win)
	if err != nil {
		return nil, fmt.Errorf("machine: fetch at %#x: %w", m.PC, err)
	}
	if bc.shared != nil {
		if b := bc.sharedHit(m, bc.win[:n]); b != nil {
			bc.insert(m.ISA, b)
			return b, nil
		}
	}
	insts, err := isa.DecodeBlock(m.ISA, bc.win[:n], m.PC, bc.insts[:0], BlockCap)
	if err != nil {
		return nil, fmt.Errorf("machine: decode at %#x: %w", m.PC, err)
	}
	bc.misses++
	fused, pairs := isa.FuseBlock(insts, bc.fused[:0])
	bc.pairsFused += uint64(pairs)
	last := &insts[len(insts)-1]
	b := &Block{
		Insts: keep(&bc.free, insts),
		Fused: keep(&bc.freeFused, fused),
		lo:    m.PC,
		hi:    last.Addr + uint32(last.Size),
	}
	if bc.shared != nil {
		bc.share(m.ISA, b, pairs)
	}
	bc.insert(m.ISA, b)
	return b, nil
}

// keepScan bounds how far down a free pool keep looks for storage that
// fits, so a pool of short blocks' storage costs a long block a few
// compares, not a walk of the whole pool.
const keepScan = 8

// keep copies a refill's scratch result src into the most recently
// recycled storage of pool that fits it, taken from among the top
// keepScan entries, or else into one exact-size allocation.
func keep[T any](pool *[][]T, src []T) []T {
	p := *pool
	for i := len(p) - 1; i >= max(0, len(p)-keepScan); i-- {
		if cap(p[i]) >= len(src) {
			dst := p[i][:len(src)]
			p[i] = p[len(p)-1]
			*pool = p[:len(p)-1]
			copy(dst, src)
			return dst
		}
	}
	dst := make([]T, len(src))
	copy(dst, src)
	return dst
}

// insert caches b under ISA k and indexes it under every page it spans.
func (bc *blockCache) insert(k isa.Kind, b *Block) {
	tab := bc.blocks[k]
	if tab == nil || len(tab) >= maxCachedBlocks {
		if len(tab) >= maxCachedBlocks {
			// Cap overflow (adversarial decode sweeps): restart both maps
			// and the index together so no stale references survive.
			bc.dropAll()
		}
		tab = make(map[uint32]*Block)
		bc.blocks[k] = tab
	}
	tab[b.lo] = b
	if bc.byPage == nil {
		bc.byPage = make(map[uint32][]blockRef)
	}
	ref := blockRef{pc: b.lo, k: k}
	for pn := b.pageLo(); pn <= b.pageHi(); pn++ {
		bc.byPage[pn] = append(bc.byPage[pn], ref)
	}
}
