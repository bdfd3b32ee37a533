package gpusim

// cache is a set-associative cache with true-LRU replacement, keyed by
// line address (byte address >> lineShift). It stores tags only — the
// simulator models timing and occupancy, not data contents.
type cache struct {
	sets      int
	ways      int
	lineShift uint
	setMask   uint64

	// tags[set*ways+way] holds the line tag; valid[..] its validity.
	tags  []uint64
	valid []bool
	// lru[set*ways+way] is a recency stamp; larger = more recent.
	lru   []uint64
	stamp uint64
}

func log2i(v int) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

func newCache(cfg CacheConfig) *cache {
	n := cfg.Sets * cfg.Ways
	return &cache{
		sets:      cfg.Sets,
		ways:      cfg.Ways,
		lineShift: log2i(cfg.LineBytes),
		setMask:   uint64(cfg.Sets - 1),
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		lru:       make([]uint64, n),
	}
}

// access looks up the line containing addr and reports whether it hit. A
// hit makes the line most recent; a miss fills it, into the set's first
// invalid way or else over its least recently used one — lookup and fill in
// one scan of the set. Lines are never invalidated, so a set's valid ways
// are a prefix of it: the first invalid way ends the scan as a miss.
func (c *cache) access(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	valid := c.valid[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	c.stamp++
	victim := 0
	for w, tag := range tags {
		if !valid[w] {
			victim = w
			break
		}
		if tag == line {
			lru[w] = c.stamp
			return true
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	tags[victim] = line
	valid[victim] = true
	lru[victim] = c.stamp
	return false
}

// clone returns a deep copy (for simulator state snapshots).
func (c *cache) clone() *cache {
	cp := &cache{
		sets:      c.sets,
		ways:      c.ways,
		lineShift: c.lineShift,
		setMask:   c.setMask,
		tags:      append([]uint64(nil), c.tags...),
		valid:     append([]bool(nil), c.valid...),
		lru:       append([]uint64(nil), c.lru...),
		stamp:     c.stamp,
	}
	return cp
}
