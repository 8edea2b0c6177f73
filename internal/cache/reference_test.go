package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refLine is one way of the reference cache.
type refLine struct {
	tag     uint64
	valid   bool
	lastUse uint64
}

// refNoMRU is the reference cache's empty MRU slot.
const refNoMRU = ^uint64(0)

// refCache is the cache's original array-of-structs model, kept as the
// oracle the structure-of-arrays Cache must match access for access: one
// {tag, valid, lastUse} struct per way, an MRU tag per set initialised to
// a sentinel, and a victim scan interleaved with the hit scan.
type refCache struct {
	lines  []refLine
	mru    []uint64
	clock  uint64
	shift  uint
	setCnt uint64
	ways   int

	Accesses, Misses uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	var shift uint
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		shift++
	}
	c := &refCache{
		setCnt: uint64(nsets),
		ways:   cfg.Ways,
		shift:  shift,
		lines:  make([]refLine, nsets*cfg.Ways),
		mru:    make([]uint64, nsets),
	}
	for i := range c.mru {
		c.mru[i] = refNoMRU
	}
	return c
}

func (c *refCache) set(tag uint64) []refLine {
	base := int(tag&(c.setCnt-1)) * c.ways
	return c.lines[base : base+c.ways]
}

func (c *refCache) LineAddr(addr uint64) uint64 { return addr >> c.shift << c.shift }

func (c *refCache) Lookup(addr uint64) bool {
	tag := addr >> c.shift
	set := c.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Access(addr uint64) bool {
	c.Accesses++
	tag := addr >> c.shift
	si := tag & (c.setCnt - 1)
	if c.mru[si] == tag {
		return true
	}
	c.clock++
	base := int(si) * c.ways
	set := c.lines[base : base+c.ways]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.clock
			c.mru[si] = tag
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	c.Misses++
	set[victim] = refLine{tag: tag, valid: true, lastUse: c.clock}
	c.mru[si] = tag
	return false
}

func (c *refCache) Invalidate(addr uint64) {
	tag := addr >> c.shift
	set := c.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
		}
	}
	if si := tag & (c.setCnt - 1); c.mru[si] == tag {
		c.mru[si] = refNoMRU
	}
}

// refHierarchy is the hierarchy's original model over reference caches:
// it walks the whole miss-buffer map to reap completed fills on every
// data access.
type refHierarchy struct {
	cfg              HierConfig
	L1I, L1D, L2, L3 *refCache
	inflight         map[uint64]int64

	DemandMisses, MergedMisses, MissBufStall uint64
	misses                                   []Miss
}

func newRefHierarchy(cfg HierConfig) *refHierarchy {
	return &refHierarchy{
		cfg: cfg,
		L1I: newRefCache(cfg.L1I), L1D: newRefCache(cfg.L1D),
		L2: newRefCache(cfg.L2), L3: newRefCache(cfg.L3),
		inflight: make(map[uint64]int64),
	}
}

func (h *refHierarchy) missLatency(addr uint64) (int, string) {
	if h.L2.Access(addr) {
		return h.cfg.L2.Latency, "l2"
	}
	if h.L3.Access(addr) {
		return h.cfg.L3.Latency, "l3"
	}
	return h.cfg.MemLatency, "mem"
}

func (h *refHierarchy) Data(now int64, addr uint64) int64 {
	for a, done := range h.inflight {
		if done <= now {
			delete(h.inflight, a)
		}
	}
	la := h.L1D.LineAddr(addr)
	if done, busy := h.inflight[la]; busy {
		h.MergedMisses++
		h.L1D.Access(addr)
		if t := now + int64(h.cfg.L1D.Latency); t > done {
			return t
		}
		return done
	}
	if h.L1D.Access(addr) {
		return now + int64(h.cfg.L1D.Latency)
	}
	start := now
	if len(h.inflight) >= h.cfg.MissBufEntries {
		earliest := int64(1<<62 - 1)
		var victim uint64
		for a, done := range h.inflight {
			if done < earliest || done == earliest && a < victim {
				earliest, victim = done, a
			}
		}
		delete(h.inflight, victim)
		if earliest > start {
			h.MissBufStall += uint64(earliest - start)
			start = earliest
		}
	}
	h.DemandMisses++
	lat, level := h.missLatency(addr)
	done := start + int64(lat)
	h.inflight[la] = done
	h.misses = append(h.misses, Miss{Addr: addr, Level: level, Latency: done - now})
	return done
}

func (h *refHierarchy) Inst(addr uint64) int64 {
	if h.L1I.Access(addr) {
		return 0
	}
	lat, level := h.missLatency(addr)
	stall := int64(lat) - int64(h.cfg.L1I.Latency)
	h.misses = append(h.misses, Miss{Addr: addr, Inst: true, Level: level, Latency: stall})
	return stall
}

// refGeometries are the level shapes the differentials cover: the four
// Table 1 levels and small ones (direct-mapped, single-set, short lines)
// where sets fill and thrash within a short stream.
var refGeometries = []Config{
	DefaultHierConfig().L1I,
	DefaultHierConfig().L1D,
	DefaultHierConfig().L2,
	DefaultHierConfig().L3,
	{SizeBytes: 512, Ways: 2, LineBytes: 64},
	{SizeBytes: 256, Ways: 4, LineBytes: 64}, // one set
	{SizeBytes: 1024, Ways: 1, LineBytes: 32},
	{SizeBytes: 64, Ways: 8, LineBytes: 2},
	{SizeBytes: 8192, Ways: 16, LineBytes: 128},
}

// refOp is one step of a differential stream: an access, or (inval) an
// invalidation.
type refOp struct {
	addr  uint64
	inval bool
}

// refStream builds one stream of n operations over cfg's geometry in the
// given shape: uniform over a pool a few times the cache's capacity,
// adversarial (ways+1 lines of one set cycled, so LRU evicts every time,
// mixed with MRU repeats), or a sequential sweep. About one operation in
// twenty is an invalidation of a recently touched line.
func refStream(r *rand.Rand, cfg Config, shape string, n int) []refOp {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	stride := uint64(sets * cfg.LineBytes) // same-set stride
	ops := make([]refOp, 0, n)
	var recent []uint64
	for len(ops) < n {
		var a uint64
		switch shape {
		case "uniform":
			a = uint64(r.Intn(3*lines)) * uint64(cfg.LineBytes)
		case "adversarial":
			set := uint64(r.Intn(min(sets, 3)))
			k := uint64(len(ops) % (cfg.Ways + 1))
			if r.Intn(4) == 0 {
				k = uint64(r.Intn(cfg.Ways + 2))
			}
			a = set*uint64(cfg.LineBytes) + k*stride
		default: // sweep
			a = uint64(len(ops)) * uint64(cfg.LineBytes/2+1)
		}
		a += uint64(r.Intn(cfg.LineBytes)) // any byte in the line
		if len(recent) > 0 && r.Intn(20) == 0 {
			ops = append(ops, refOp{addr: recent[r.Intn(len(recent))], inval: true})
			continue
		}
		if r.Intn(3) == 0 && len(recent) > 0 {
			a = recent[len(recent)-1] // an MRU repeat
		}
		ops = append(ops, refOp{addr: a})
		recent = append(recent, a)
		if len(recent) > 8 {
			recent = recent[1:]
		}
	}
	return ops
}

// TestCacheMatchesReference drives the structure-of-arrays Cache and the
// reference model through the same streams and requires every Access
// result, both counters, the final Lookup state of every address the
// stream touched, and the final contents of every way to match.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range refGeometries {
		for _, shape := range []string{"uniform", "adversarial", "sweep"} {
			for seed := int64(0); seed < 3; seed++ {
				name := fmt.Sprintf("%dB/%dway/%dB-line/%s/seed%d", cfg.SizeBytes, cfg.Ways, cfg.LineBytes, shape, seed)
				c, ref := New(cfg), newRefCache(cfg)
				n := min(20000, 8*cfg.SizeBytes/cfg.LineBytes)
				ops := refStream(rand.New(rand.NewSource(seed)), cfg, shape, n)
				for i, op := range ops {
					if op.inval {
						c.Invalidate(op.addr)
						ref.Invalidate(op.addr)
						continue
					}
					if got, want := c.Access(op.addr), ref.Access(op.addr); got != want {
						t.Fatalf("%s: op %d Access(%#x) = %v, reference %v", name, i, op.addr, got, want)
					}
				}
				if c.Accesses != ref.Accesses || c.Misses != ref.Misses {
					t.Fatalf("%s: counters %d/%d, reference %d/%d", name, c.Accesses, c.Misses, ref.Accesses, ref.Misses)
				}
				for _, op := range ops {
					if got, want := c.Lookup(op.addr), ref.Lookup(op.addr); got != want {
						t.Fatalf("%s: final Lookup(%#x) = %v, reference %v", name, op.addr, got, want)
					}
				}
				// Way placement is not observable through Access or
				// Lookup, but the victim rule is pinned way for way.
				for i, l := range ref.lines {
					want := uint64(0)
					if l.valid {
						want = l.tag + 1
					}
					if c.tags[i] != want {
						t.Fatalf("%s: way %d holds key %#x, reference %#x", name, i, c.tags[i], want)
					}
				}
			}
		}
	}
}

// TestHierarchyMatchesReference drives Hierarchy and the reference model
// through the same mixed data/instruction streams, with occasional L1-D
// and L2 invalidations, at several miss-buffer sizes, on the Table 1
// geometry and on a small one. Time is monotone with random gaps, so
// fills complete, merge and back up. Every Data/Inst return value, every
// miss event, every counter and the final Lookup state of each level must
// match.
func TestHierarchyMatchesReference(t *testing.T) {
	small := HierConfig{
		L1I:        Config{SizeBytes: 512, Ways: 2, LineBytes: 64, Latency: 2},
		L1D:        Config{SizeBytes: 1024, Ways: 4, LineBytes: 64, Latency: 3},
		L2:         Config{SizeBytes: 4096, Ways: 8, LineBytes: 64, Latency: 9},
		L3:         Config{SizeBytes: 16384, Ways: 16, LineBytes: 64, Latency: 21},
		MemLatency: 90,
	}
	for _, geo := range []struct {
		name string
		cfg  HierConfig
		span int // distinct lines the stream draws from
	}{
		{"table1", DefaultHierConfig(), 1 << 15},
		{"small", small, 1 << 9},
	} {
		for _, mb := range []int{1, 2, 4, 64} {
			for seed := int64(0); seed < 4; seed++ {
				name := fmt.Sprintf("%s/mb%d/seed%d", geo.name, mb, seed)
				cfg := geo.cfg
				cfg.MissBufEntries = mb
				h, ref := NewHierarchy(cfg), newRefHierarchy(cfg)
				var got []Miss
				h.OnMiss = func(ms Miss) { got = append(got, ms) }
				r := rand.New(rand.NewSource(seed))
				var now int64
				var touched []uint64
				for i := 0; i < 20000; i++ {
					switch g := r.Intn(10); {
					case g < 6:
						now += int64(r.Intn(3))
					case g < 9:
						now += int64(r.Intn(40))
					default:
						now += int64(r.Intn(300))
					}
					a := uint64(1<<20) + uint64(r.Intn(geo.span))*64 + uint64(r.Intn(8))*8
					if len(touched) > 0 && r.Intn(3) == 0 {
						a = touched[r.Intn(len(touched))] // revisit, often still in flight
					}
					touched = append(touched, a)
					if len(touched) > 32 {
						touched = touched[1:]
					}
					switch op := r.Intn(20); {
					case op == 0:
						h.L1D.Invalidate(a)
						ref.L1D.Invalidate(a)
					case op == 1:
						h.L2.Invalidate(a)
						ref.L2.Invalidate(a)
					case op < 5:
						if g, w := h.Inst(a), ref.Inst(a); g != w {
							t.Fatalf("%s: step %d Inst(%#x) = %d, reference %d", name, i, a, g, w)
						}
					default:
						if g, w := h.Data(now, a), ref.Data(now, a); g != w {
							t.Fatalf("%s: step %d Data(%d, %#x) = %d, reference %d", name, i, now, a, g, w)
						}
					}
				}
				if !reflect.DeepEqual(got, ref.misses) {
					t.Fatalf("%s: miss events diverged (%d vs %d)", name, len(got), len(ref.misses))
				}
				if h.DemandMisses != ref.DemandMisses || h.MergedMisses != ref.MergedMisses ||
					h.MissBufStall != ref.MissBufStall {
					t.Fatalf("%s: demand/merged/stall %d/%d/%d, reference %d/%d/%d", name,
						h.DemandMisses, h.MergedMisses, h.MissBufStall,
						ref.DemandMisses, ref.MergedMisses, ref.MissBufStall)
				}
				levels := []struct {
					name string
					c    *Cache
					ref  *refCache
				}{{"L1I", h.L1I, ref.L1I}, {"L1D", h.L1D, ref.L1D}, {"L2", h.L2, ref.L2}, {"L3", h.L3, ref.L3}}
				for _, l := range levels {
					if l.c.Accesses != l.ref.Accesses || l.c.Misses != l.ref.Misses {
						t.Fatalf("%s: %s counters %d/%d, reference %d/%d", name, l.name,
							l.c.Accesses, l.c.Misses, l.ref.Accesses, l.ref.Misses)
					}
					for k := 0; k < geo.span; k++ {
						a := uint64(1<<20) + uint64(k)*64
						if g, w := l.c.Lookup(a), l.ref.Lookup(a); g != w {
							t.Fatalf("%s: %s final Lookup(%#x) = %v, reference %v", name, l.name, a, g, w)
						}
					}
				}
			}
		}
	}
}
