package gpusim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64})
	addr := uint64(0x1000)
	if c.access(addr) {
		t.Fatal("empty cache must miss")
	}
	if !c.access(addr) {
		t.Fatal("a line filled by its miss must hit")
	}
}

func TestCacheSameLineDifferentOffsets(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64})
	c.access(0x1000)
	for off := uint64(0); off < 64; off += 8 {
		if !c.access(0x1000 + off) {
			t.Fatalf("offset %d within the filled line missed", off)
		}
	}
	if c.access(0x1040) {
		t.Fatal("next line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways: the set holds exactly two lines.
	c := newCache(CacheConfig{Sets: 1, Ways: 2, LineBytes: 64})
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.access(a)
	c.access(b)
	c.access(a) // a is now most recent
	c.access(d) // misses and must evict b (LRU)
	if !c.contains(a) {
		t.Fatal("recently used line a was evicted")
	}
	if c.contains(b) {
		t.Fatal("LRU line b survived eviction")
	}
	if !c.contains(d) {
		t.Fatal("newly filled line d missing")
	}
}

func TestCacheSetIndexing(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 1, LineBytes: 64})
	// Lines 0,1,2,3 map to different sets: all four fit despite 1 way.
	for i := uint64(0); i < 4; i++ {
		c.access(i * 64)
	}
	for i := uint64(0); i < 4; i++ {
		if !c.contains(i * 64) {
			t.Fatalf("line %d missing; set indexing broken", i)
		}
	}
	// Line 4 aliases set 0 and evicts line 0.
	c.access(4 * 64)
	if c.contains(0) {
		t.Fatal("aliased line not evicted from 1-way set")
	}
}

func TestCacheCloneIndependence(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64})
	c.access(0x80)
	cp := c.clone()
	cp.access(0x10000)
	if c.contains(0x10000) {
		t.Fatal("clone mutation leaked into original")
	}
	if !cp.contains(0x80) {
		t.Fatal("clone lost original contents")
	}
}

// TestCacheNeverExceedsCapacity checks the structural invariant that a
// set never holds more valid lines than it has ways, under random fills.
func TestCacheNeverExceedsCapacity(t *testing.T) {
	cfg := CacheConfig{Sets: 8, Ways: 2, LineBytes: 64}
	f := func(addrs []uint32) bool {
		c := newCache(cfg)
		for _, a := range addrs {
			c.access(uint64(a))
		}
		// Count valid lines per set.
		counts := make(map[int]int)
		for i, v := range c.valid {
			if v {
				counts[i/cfg.Ways]++
			}
		}
		for _, n := range counts {
			if n > cfg.Ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheInclusionProperty: a line just accessed is always present.
func TestCacheInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCache(CacheConfig{Sets: 4, Ways: 4, LineBytes: 64})
		for i := 0; i < 100; i++ {
			a := uint64(rng.Intn(1 << 14))
			c.access(a)
			if !c.contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Sets: 64, Ways: 4, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CacheConfig{
		{Sets: 0, Ways: 4, LineBytes: 64},
		{Sets: 63, Ways: 4, LineBytes: 64}, // not a power of two
		{Sets: 64, Ways: 0, LineBytes: 64},
		{Sets: 64, Ways: 4, LineBytes: 0},
		{Sets: 64, Ways: 4, LineBytes: 48}, // not a power of two
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v validated, want error", cfg)
		}
	}
}

// contains probes without touching LRU state.
func (c *cache) contains(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// refCache is the reference model access replaced: a lookup that updates
// recency on a hit and allocates nothing, and a fill that takes the set's
// first invalid way or else its least recently used one, called on every
// miss.
type refCache struct {
	ways      int
	lineShift uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	lru       []uint64
	stamp     uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	n := cfg.Sets * cfg.Ways
	return &refCache{
		ways: cfg.Ways, lineShift: log2i(cfg.LineBytes), setMask: uint64(cfg.Sets - 1),
		tags: make([]uint64, n), valid: make([]bool, n), lru: make([]uint64, n),
	}
}

func (c *refCache) lookup(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.stamp++
			c.lru[base+w] = c.stamp
			return true
		}
	}
	return false
}

func (c *refCache) fill(addr uint64) {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.stamp++
	c.tags[victim] = line
	c.valid[victim] = true
	c.lru[victim] = c.stamp
}

// TestCacheAccessMatchesLookupThenFill drives access and the reference
// lookup-then-fill pair with the same random address streams — narrow ones
// that hit and evict within a few sets, wide ones that mostly miss — and
// requires the same answer to every access and the same tags, validity,
// recency stamps and clock after it.
func TestCacheAccessMatchesLookupThenFill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []CacheConfig{
		{Sets: 1, Ways: 1, LineBytes: 64},
		{Sets: 1, Ways: 4, LineBytes: 64},
		{Sets: 4, Ways: 2, LineBytes: 32},
		{Sets: 64, Ways: 4, LineBytes: 128},
		{Sets: 16, Ways: 16, LineBytes: 64},
	} {
		for _, span := range []int{1 << 9, 1 << 12, 1 << 20} {
			c, ref := newCache(cfg), newRefCache(cfg)
			for i := 0; i < 5000; i++ {
				addr := uint64(rng.Intn(span))
				hit := ref.lookup(addr)
				if !hit {
					ref.fill(addr)
				}
				if got := c.access(addr); got != hit {
					t.Fatalf("%+v span %d access %d (%#x): hit %t, reference %t", cfg, span, i, addr, got, hit)
				}
				if c.stamp != ref.stamp || !slices.Equal(c.tags, ref.tags) ||
					!slices.Equal(c.valid, ref.valid) || !slices.Equal(c.lru, ref.lru) {
					t.Fatalf("%+v span %d access %d (%#x): state differs from the reference", cfg, span, i, addr)
				}
			}
		}
	}
}
