package cache

import "testing"

// BenchmarkCacheAccess measures one Access on the Table 1 geometry in
// three stream shapes: repeated hits on each set's most-recently-used
// line (the fast path), hits in a 16-way L2 set that are not its MRU line
// (a full tag scan), and misses in a full 32-way L3 set (tag scan plus
// victim scan).
func BenchmarkCacheAccess(b *testing.B) {
	cfg := DefaultHierConfig()
	cases := []struct {
		name  string
		level Config
		span  uint64 // bytes the stream cycles over, one line at a time
	}{
		{"mru-hit", cfg.L1D, 64},
		{"l2-hit", cfg.L2, 128 << 10},
		{"l3-miss", cfg.L3, 8 << 20},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			c := New(bc.level)
			line := uint64(bc.level.LineBytes)
			for a := uint64(0); a < bc.span; a += line {
				c.Access(a) // warm: the hit streams start resident
			}
			c.ResetStats()
			a := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(a)
				if a += line; a >= bc.span {
					a = 0
				}
			}
		})
	}
}

// BenchmarkHierarchyData measures one data access on the Table 1
// hierarchy in a miss-buffer-heavy stream: the clock advances a cycle per
// access, every other access starts a new line beyond the L3's reach (so
// the 64-entry miss buffer runs full and evicts), and the rest revisit a
// line still in flight (a merge).
func BenchmarkHierarchyData(b *testing.B) {
	h := NewDefault()
	const span = 64 << 20
	var now int64
	a := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			if a += 64; a >= span {
				a = 0
			}
			h.Data(now, 1<<30+a)
		} else {
			h.Data(now, 1<<30+a+8)
		}
		now++
	}
}
