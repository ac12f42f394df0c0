package machine

import (
	"bytes"
	"sync"

	"hipstr/internal/isa"
)

// SharedBlocks is a concurrent, bounded table of immutable predecoded
// blocks, keyed per ISA by start PC. Machines whose memories fork from one
// snapshot start from the same image, so each block one of them decodes is
// one its siblings are about to decode too: a machine given the table
// (ShareBlocks) looks its block-cache refills up here first and publishes
// its own fresh decodes. The zero value is an empty table.
//
// A hit needs the live bytes at (ISA, PC) to equal the bytes an entry
// decoded from, so a machine that patched or flushed its code misses and
// decodes privately. Its decode is published beside the others at that
// PC: siblings at different stages of one program hold different versions
// of the same code-cache bytes (before and after a chain patch, say), and
// each should find the one it holds. Only blocks that end at a terminator
// or at BlockCap are published: their extent depends on nothing past their
// own bytes, so a hit is exactly the block a private decode would produce —
// instructions, fusion and block boundaries alike.
//
// Nothing reachable from an entry is written after publish: each machine
// wraps it in a private Block (its own successor link and page-index
// entries) and never recycles its storage into the free pools.
type SharedBlocks struct {
	mu     sync.Mutex
	blocks [2]map[uint32][]*sharedBlock // per isa.Kind: each PC's versions, newest first
	n      [2]int                       // blocks held per isa.Kind, all versions counted
}

// maxVersions bounds the decodes kept per start PC; publishing past it
// drops the oldest.
const maxVersions = 4

// sharedBlock is one published decode.
type sharedBlock struct {
	insts  []isa.Inst
	fused  []isa.FusedInst
	pairs  int              // fused pairs in fused
	timing *isa.BlockTiming // built at publish, so no machine writes it later
	src    []byte           // the bytes [lo, hi) the block decoded from
}

// ShareBlocks makes the machine's block-cache refills look up t before
// decoding and publish their fresh decodes into it. Call it before the
// first Run; a machine given no table decodes every block privately.
func (m *Machine) ShareBlocks(t *SharedBlocks) { m.blocks.shared = t }

// lookup returns the versions published at (k, pc). The slice is never
// written after it is stored, so the caller may read it unlocked.
func (t *SharedBlocks) lookup(k isa.Kind, pc uint32) []*sharedBlock {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blocks[k][pc]
}

// publish adds e as the newest version at (k, pc). Past maxCachedBlocks
// the table restarts empty on both ISAs, as the private cache does;
// machines keep whatever wrappers they already hold.
func (t *SharedBlocks) publish(k isa.Kind, pc uint32, e *sharedBlock) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n[k] >= maxCachedBlocks {
		t.blocks = [2]map[uint32][]*sharedBlock{}
		t.n = [2]int{}
	}
	if t.blocks[k] == nil {
		t.blocks[k] = make(map[uint32][]*sharedBlock)
	}
	old := t.blocks[k][pc]
	vs := append(make([]*sharedBlock, 0, maxVersions), e)
	vs = append(vs, old[:min(len(old), maxVersions-1)]...)
	t.n[k] += len(vs) - len(old)
	t.blocks[k][pc] = vs
}

// sharedHit returns a private wrapper around the table's block at m.PC
// whose source bytes are exactly the live bytes in win (fetched at m.PC),
// or nil. A hit counts as the cache's own miss, so block-cache statistics
// do not depend on whether a table is in play.
func (bc *blockCache) sharedHit(m *Machine, win []byte) *Block {
	for _, e := range bc.shared.lookup(m.ISA, m.PC) {
		if len(e.src) > len(win) || !bytes.Equal(win[:len(e.src)], e.src) {
			continue
		}
		bc.misses++
		bc.sharedHits++
		bc.pairsFused += uint64(e.pairs)
		return &Block{
			Insts:  e.insts,
			Fused:  e.fused,
			timing: e.timing,
			lo:     m.PC,
			hi:     m.PC + uint32(len(e.src)),
			shared: true,
		}
	}
	return nil
}

// share publishes b, just decoded from bc.win, when its extent is fixed by
// its own bytes, and hands its storage to the table.
func (bc *blockCache) share(k isa.Kind, b *Block, pairs int) {
	if last := &b.Insts[len(b.Insts)-1]; !last.EndsBlock() && len(b.Insts) < BlockCap {
		return // ended at a decode failure or the end of executable memory
	}
	b.timing = bc.summarize(b.Insts)
	b.shared = true
	bc.shared.publish(k, b.lo, &sharedBlock{
		insts:  b.Insts,
		fused:  b.Fused,
		pairs:  pairs,
		timing: b.timing,
		src:    bytes.Clone(bc.win[:b.hi-b.lo]),
	})
}
