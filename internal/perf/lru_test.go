package perf

// The timestamp-LRU cache the recency-ordered cacheSim replaced, kept as
// the reference FuzzCacheSimMatchesLRU checks it against.

import (
	"testing"
)

// lruCache is a set-associative cache with LRU replacement by access
// timestamps: each way records the tick of its last touch and a miss
// evicts the way with the oldest stamp (the lowest-numbered one on a
// tie, so empty ways, stamped 0, go first).
type lruCache struct {
	cfg      CacheConfig
	sets     int
	setMask  int // sets-1 when sets is a power of two, else -1
	lineBits uint
	ways     int
	hitLat   float64
	tags     []uint32
	lru      []uint64
	tick     uint64
	// lastLine/lastIdx memoize the most recently accessed line and its
	// flat-array slot. The last-touched way is always the set's newest, so
	// it can never be the LRU victim of an intervening miss. Its stamp is
	// written lazily: memo hits bump only tick, and accessSlow flushes the
	// final value before any set search reads it.
	lastLine uint32
	lastIdx  int

	Misses uint64
}

func (c *lruCache) Hits() uint64 { return c.tick - c.Misses }

func newLRUCache(cfg CacheConfig) *lruCache {
	lines := cfg.SizeKB * 1024 / cfg.LineB
	sets := lines / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	lb := uint(0)
	for 1<<lb < cfg.LineB {
		lb++
	}
	c := &lruCache{cfg: cfg, sets: sets, setMask: -1, lineBits: lb, ways: cfg.Ways, hitLat: cfg.HitLat}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	c.tags = make([]uint32, sets*cfg.Ways)
	c.lru = make([]uint64, sets*cfg.Ways)
	for i := range c.tags {
		c.tags[i] = ^uint32(0)
	}
	// Seed the memo with a real resident entry: every fresh tag is ^0, so
	// line ^0 maps to way 0 of its set.
	c.lastLine = ^uint32(0)
	if c.setMask >= 0 {
		c.lastIdx = (int(c.lastLine) & c.setMask) * cfg.Ways
	} else {
		c.lastIdx = (int(c.lastLine) % sets) * cfg.Ways
	}
	return c
}

func (c *lruCache) access(addr uint32) float64 {
	if addr>>c.lineBits == c.lastLine {
		c.tick++
		return c.hitLat
	}
	return c.accessSlow(addr)
}

func (c *lruCache) accessSlow(addr uint32) float64 {
	line := addr >> c.lineBits
	c.lru[c.lastIdx] = c.tick
	c.tick++
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

// fuzzWays are the associativities FuzzCacheSimMatchesLRU draws from.
var fuzzWays = [...]int{1, 2, 3, 4, 8}

// fuzzLines are its line sizes: powers of two and two that are not
// (which round the line shift up).
var fuzzLines = [...]int{16, 64, 1024, 48, 96}

// FuzzCacheSimMatchesLRU replays a fuzzed address stream through the
// recency-ordered cacheSim and the timestamp-LRU reference on one
// geometry, drawn from the input: 1, 2, 3, 4 or 8 ways and sizes that
// give power-of-two and other set counts (one set included). Every
// access must report the same latency, and the hit and miss counts must
// agree after it. Addresses come from a few hundred lines, so sets
// conflict and evict, plus the top of the address space.
func FuzzCacheSimMatchesLRU(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 32, 0, 0, 0, 64, 0, 32, 0, 0, 0})    // 2 ways, 1 KiB, 64 B lines
	f.Add([]byte{2, 2, 3, 1, 0, 4, 0, 7, 0, 1, 0, 10, 0, 4, 0})      // 3 ways: a non-power-of-two set count
	f.Add([]byte{4, 3, 0, 9, 0, 1, 1, 9, 0, 1, 2, 9, 0, 1, 1, 9, 0}) // 8 ways in one set
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := CacheConfig{
			Ways:    fuzzWays[int(data[0])%len(fuzzWays)],
			LineB:   fuzzLines[int(data[1])%len(fuzzLines)],
			SizeKB:  1 + int(data[2]%16),
			HitLat:  2,
			MissLat: 20,
		}
		got, ref := newCacheSim(cfg), newLRUCache(cfg)
		if got.sets != ref.sets || got.setMask != ref.setMask || got.lineBits != ref.lineBits {
			t.Fatalf("%+v: geometry %d/%d/%d, reference %d/%d/%d", cfg,
				got.sets, got.setMask, got.lineBits, ref.sets, ref.setMask, ref.lineBits)
		}
		stream := data[3:]
		for i := 0; i+1 < len(stream); i += 2 {
			// A line among the first 1,024, or one of the last 256 lines
			// of the address space when the high byte is 0xFF.
			line := uint32(stream[i]) | uint32(stream[i+1]&3)<<8
			addr := line<<got.lineBits | uint32(stream[i+1])>>2
			if stream[i+1] == 0xFF {
				addr = ^uint32(0) - uint32(stream[i])<<got.lineBits
			}
			lg, lr := got.access(addr), ref.access(addr)
			if lg != lr || got.Hits() != ref.Hits() || got.Misses != ref.Misses {
				t.Fatalf("%+v, access %d (%#x): latency %v, %d hits, %d misses; reference %v, %d, %d",
					cfg, i/2, addr, lg, got.Hits(), got.Misses, lr, ref.Hits(), ref.Misses)
			}
		}
	})
}
