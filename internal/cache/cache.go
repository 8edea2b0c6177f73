// Package cache models the memory hierarchy of Table 1: split 32KB L1
// instruction/data caches, a 256KB unified L2, a 4MB L3, and 140-cycle
// main memory, with a miss buffer (MSHR) that merges requests to in-flight
// lines and bounds outstanding misses.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one set-associative cache level.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	Latency   int // total load-to-use latency for a hit at this level
}

// Cache is one set-associative level with LRU replacement.
//
// Way storage is structure-of-arrays, set-major: tags holds each way's
// key (its line tag plus one, so the zero value means invalid) and last
// its LRU stamp. A hit scan reads only the 8-byte keys, and the stamps
// are read only by a miss's victim scan. Each set also caches the key of
// its most-recently-used line (0 when unknown). The
// simulator's access stream is dominated by repeated hits on the same
// line, and an MRU hit can skip the way scan and the LRU bookkeeping
// entirely: refreshing the line that already holds the unique per-set
// maximum stamp cannot change any future victim choice (victims are
// picked by comparing stamps within one set only), so the fast path
// leaves hit/miss outcomes and both counters byte-identical. Because 0
// encodes both "invalid" and "no MRU line", New needs no initialisation
// pass.
type Cache struct {
	cfg     Config
	tags    []uint64 // one key per way (tag+1; 0 = invalid), set-major
	last    []uint64 // LRU stamps, index-aligned with tags
	mru     []uint64 // per-set MRU key, 0 when unknown
	clock   uint64
	shift   uint // log2(LineBytes)
	setMask uint64
	ways    int

	Accesses uint64
	Misses   uint64
}

// New builds a cache from its configuration. It panics unless LineBytes
// is a power of two of at least 2 (the key encoding needs one offset bit
// so tag+1 cannot wrap) and the set count is a positive power of two.
func New(cfg Config) *Cache {
	if cfg.LineBytes < 2 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: LineBytes must be a power of two of at least 2, got %d", cfg.LineBytes))
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	return &Cache{
		cfg:     cfg,
		setMask: uint64(nsets - 1),
		ways:    cfg.Ways,
		shift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tags:    make([]uint64, nsets*cfg.Ways),
		last:    make([]uint64, nsets*cfg.Ways),
		mru:     make([]uint64, nsets),
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.shift << c.shift }

// locate returns the key of the line containing addr and the index of
// the first way of its set.
func (c *Cache) locate(addr uint64) (key uint64, si uint64, base int) {
	tag := addr >> c.shift
	si = tag & c.setMask
	return tag + 1, si, int(si) * c.ways
}

// Lookup probes for the line containing addr without changing state.
func (c *Cache) Lookup(addr uint64) bool {
	key, _, base := c.locate(addr)
	for _, k := range c.tags[base : base+c.ways] {
		if k == key {
			return true
		}
	}
	return false
}

// Access touches the line containing addr: on a hit it refreshes LRU and
// returns true; on a miss it allocates the line (evicting the LRU way) and
// returns false.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	key, si, base := c.locate(addr)
	if c.mru[si] == key {
		// The line is already its set's newest; refreshing it would not
		// change relative LRU order, so skip the scan and the clock tick.
		return true
	}
	c.clock++
	tags := c.tags[base : base+c.ways]
	for i, k := range tags {
		if k == key {
			c.last[base+i] = c.clock
			c.mru[si] = key
			return true
		}
	}
	c.Misses++
	// Victim: the highest-index invalid way, else the first way holding
	// the set's minimum stamp.
	victim := -1
	for i := len(tags) - 1; i >= 0; i-- {
		if tags[i] == 0 {
			victim = i
			break
		}
	}
	last := c.last[base : base+c.ways]
	if victim < 0 {
		victim = 0
		for i := 1; i < len(last); i++ {
			if last[i] < last[victim] {
				victim = i
			}
		}
	}
	tags[victim], last[victim] = key, c.clock
	c.mru[si] = key
	return false
}

// Invalidate drops the line containing addr if present.
func (c *Cache) Invalidate(addr uint64) {
	key, si, base := c.locate(addr)
	tags := c.tags[base : base+c.ways]
	for i, k := range tags {
		if k == key {
			tags[i] = 0
		}
	}
	if c.mru[si] == key {
		c.mru[si] = 0
	}
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears counters without touching contents, so warmup can be
// excluded from measurement.
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }
