// Package sched implements the block-local, latency-weighted list
// scheduler applied to BOTH the baseline and the transformed programs, so
// that speedups measured for the decomposed branch transformation come
// from the transformation itself and not from scheduling disparity.
//
// For an in-order machine the instruction order within a block IS the
// issue order, so the scheduler's job is to order independent work (long
// latency loads first) ahead of its consumers while respecting data and
// memory dependences. Memory disambiguation is offset-based: accesses
// through the same base register with different offsets are independent;
// anything else is conservatively ordered (the paper's DBT substrate has
// data-speculation hardware; we only rely on it where provably safe).
package sched

import (
	"fmt"

	"vanguard/internal/ir"
	"vanguard/internal/isa"
)

// Model describes the machine the scheduler targets.
type Model struct {
	Width       int
	IntUnits    int
	MemUnits    int
	FPUnits     int
	LoadLatency int // expected load-to-use latency (L1 hit)
}

// DefaultModel returns the Table 1 machine model at the given width.
func DefaultModel(width int) Model {
	return Model{Width: width, IntUnits: 2, MemUnits: 2, FPUnits: 4, LoadLatency: 4}
}

// check panics on a model no schedule can satisfy: at Width 0 nothing
// ever issues, so a region of two or more instructions never finishes.
func (m Model) check() {
	if m.Width < 1 {
		panic(fmt.Sprintf("sched: Model.Width must be at least 1, got %d", m.Width))
	}
}

// Program schedules every block of every function in place. It panics
// on a Model whose Width is below 1.
func Program(p *ir.Program, m Model) {
	m.check()
	var s scheduler
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			s.block(b, m)
		}
	}
}

// latency returns the scheduling latency of an instruction.
func (m Model) latency(ins isa.Instr) int {
	if ins.IsLoad() {
		return m.LoadLatency
	}
	return ins.Op.Latency()
}

// mustOrder reports whether j (later) must stay after i (earlier). It is
// the scheduler's dependence relation; region builds a subset of its
// edges with the same reachability (see depGraph).
func mustOrder(i, j isa.Instr) bool {
	di, dj := i.Def(), j.Def()
	iu1, iu2, iu3 := i.Uses()
	ju1, ju2, ju3 := j.Uses()
	if di != isa.NoReg && (ju1 == di || ju2 == di || ju3 == di || dj == di) {
		return true // RAW or WAW
	}
	if dj != isa.NoReg && (dj == iu1 || dj == iu2 || dj == iu3) {
		return true // WAR
	}
	return memOrder(i, j)
}

// memOrder reports whether two memory accesses, i before j, must stay
// ordered: at least one is a store and they may touch the same word.
//
// Same base register with a different offset is treated as disjoint even
// though the base's value is not known. That is sound because memory is
// accessed in aligned 64-bit words, so two offsets from one base value
// name different words whenever they differ; and if the base register is
// redefined between i and j, the two accesses see different base values,
// but then i reads the base (WAR into the redefinition) and the
// redefinition feeds j (RAW), so the register edges order the pair
// anyway: st [r1+0]; addi r1,r1,8; ld [r1-8] keeps the load last.
func memOrder(i, j isa.Instr) bool {
	if !i.IsMem() || !j.IsMem() || !(i.IsStore() || j.IsStore()) {
		return false
	}
	return i.Src1 != j.Src1 || i.Imm == j.Imm
}

// Block reorders one block in place. Terminators and any control
// instruction (e.g. a mid-block CALL) act as scheduling barriers. It
// panics on a Model whose Width is below 1.
func Block(b *ir.Block, m Model) {
	m.check()
	var s scheduler
	s.block(b, m)
}

// scheduler holds the per-region work arrays, reused across the regions
// and blocks of one Program or Block call so that steady-state scheduling
// allocates only each block's output slice.
//
// A region of n instructions costs O(n log n + E + M²), where E is the
// number of dependence edges (at most a few per instruction: one RAW per
// source, one WAW, and the WAR readers since the last definition) and M
// is the number of memory instructions, whose pairwise ordering rule has
// no table form. The order is exactly that of the textbook quadratic list
// scheduler kept in the tests as referenceRegion.
type scheduler struct {
	// Dependence tables, indexed by register.
	lastDef [256]int   // latest instruction defining the register, or -1
	readers [256][]int // instructions reading it since that definition

	mems, stores []int // memory instructions (and stores) seen so far
	seen         []int // seen[i] == j+1 once the edge i→j is recorded
	edges        []edge

	succStart, succs []int // successor lists in CSR form
	npreds           []int
	prio, readyAt    []int
	ready            [isa.NumFUClasses]minHeap // by (prio desc, index asc)
	pending          minHeap                   // by (readyAt, index)
}

type edge struct{ from, to int }

func (s *scheduler) block(b *ir.Block, m Model) {
	// Split into barrier-delimited regions; schedule each independently.
	out := make([]isa.Instr, 0, len(b.Instrs))
	start := 0
	for i, ins := range b.Instrs {
		if ins.IsControl() {
			out = s.region(out, b.Instrs[start:i], m)
			out = append(out, ins)
			start = i + 1
		}
	}
	b.Instrs = s.region(out, b.Instrs[start:], m)
}

// region list-schedules a straight-line run of instructions and appends
// them, in issue order, to out.
func (s *scheduler) region(out, ins []isa.Instr, m Model) []isa.Instr {
	n := len(ins)
	if n <= 1 {
		return append(out, ins...)
	}
	s.depGraph(ins)

	// Critical-path priorities: latency plus the longest successor path.
	s.prio = resize(s.prio, n)
	for i := n - 1; i >= 0; i-- {
		p := 0
		for _, c := range s.succs[s.succStart[i]:s.succStart[i+1]] {
			p = max(p, s.prio[c])
		}
		s.prio[i] = p + m.latency(ins[i])
	}

	// Greedy machine-model walk. Every cycle, admit the instructions
	// whose predecessors have all issued and whose operands are ready by
	// now, then issue up to Width of them, best priority first, skipping
	// any whose functional-unit class is full this cycle. An instruction
	// whose last predecessor issues this cycle joins pending only then,
	// so it is first considered next cycle at the earliest.
	s.readyAt = resize(s.readyAt, n)
	clear(s.readyAt)
	s.pending = s.pending[:0]
	for fu := range s.ready {
		s.ready[fu] = s.ready[fu][:0]
	}
	for i := 0; i < n; i++ {
		if s.npreds[i] == 0 {
			s.pending.push(key(0, i))
		}
	}
	limit := [isa.NumFUClasses]int{isa.FUInt: m.IntUnits, isa.FUMem: m.MemUnits, isa.FUFP: m.FPUnits}
	for cycle, done := 0, 0; done < n; cycle++ {
		for len(s.pending) > 0 && s.readyAt[s.pending.peekIndex()] <= cycle {
			i := s.pending.popIndex()
			s.ready[ins[i].Op.Unit()].push(key(-s.prio[i], i))
		}
		if s.readyEmpty() {
			// Nothing can issue until the next operand arrives.
			cycle = s.readyAt[s.pending.peekIndex()] - 1
			continue
		}
		var used [isa.NumFUClasses]int
		for issued := 0; issued < m.Width; issued++ {
			best := -1
			for fu := range s.ready {
				if used[fu] < limit[fu] && len(s.ready[fu]) > 0 &&
					(best < 0 || s.ready[fu][0] < s.ready[best][0]) {
					best = fu
				}
			}
			if best < 0 {
				break
			}
			used[best]++
			done++
			i := s.ready[best].popIndex()
			out = append(out, ins[i])
			t := cycle + m.latency(ins[i])
			for _, c := range s.succs[s.succStart[i]:s.succStart[i+1]] {
				s.readyAt[c] = max(s.readyAt[c], t)
				if s.npreds[c]--; s.npreds[c] == 0 {
					s.pending.push(key(s.readyAt[c], c))
				}
			}
		}
	}
	return out
}

func (s *scheduler) readyEmpty() bool {
	for fu := range s.ready {
		if len(s.ready[fu]) > 0 {
			return false
		}
	}
	return true
}

// depGraph builds the region's dependence edges in one forward pass and
// leaves them as successor lists with predecessor counts.
//
// Register dependences come from the tables: each source gets a RAW edge
// from the register's last definition, and each definition gets a WAW
// edge from the previous one and WAR edges from every reader since it.
// Memory instructions are ordered pairwise by memOrder. Every edge is a
// mustOrder edge, and every mustOrder edge the tables drop is implied by
// a path: an earlier definition reaches the last one through the WAW
// chain, and a reader before the last definition has a WAR edge into the
// first definition after it. Because no latency is negative, a
// path constrains its endpoints at least as tightly as the direct edge,
// so the critical-path priorities and the ready cycles, and therefore the
// schedule, equal those of the full mustOrder graph.
func (s *scheduler) depGraph(ins []isa.Instr) {
	n := len(ins)
	for r := range s.lastDef {
		s.lastDef[r] = -1
		s.readers[r] = s.readers[r][:0]
	}
	s.mems, s.stores = s.mems[:0], s.stores[:0]
	s.seen = resize(s.seen, n)
	clear(s.seen)
	s.edges = s.edges[:0]
	s.npreds = resize(s.npreds, n)
	clear(s.npreds)
	s.succStart = resize(s.succStart, n+1)
	clear(s.succStart)

	for j, in := range ins {
		add := func(i int) {
			if i >= 0 && s.seen[i] != j+1 {
				s.seen[i] = j + 1
				s.edges = append(s.edges, edge{i, j})
				s.succStart[i+1]++
				s.npreds[j]++
			}
		}
		u1, u2, u3 := in.Uses()
		uses := [3]isa.Reg{u1, u2, u3}
		for _, u := range uses {
			if u != isa.NoReg {
				add(s.lastDef[u]) // RAW
			}
		}
		d := in.Def()
		if d != isa.NoReg {
			add(s.lastDef[d]) // WAW
			for _, r := range s.readers[d] {
				add(r) // WAR
			}
		}
		if in.IsMem() {
			prior := s.stores // a load conflicts only with stores
			if in.IsStore() {
				prior = s.mems
			}
			for _, i := range prior {
				if memOrder(ins[i], in) {
					add(i)
				}
			}
			s.mems = append(s.mems, j)
			if in.IsStore() {
				s.stores = append(s.stores, j)
			}
		}
		for _, u := range uses {
			if u != isa.NoReg {
				s.readers[u] = append(s.readers[u], j)
			}
		}
		if d != isa.NoReg {
			s.readers[d] = s.readers[d][:0]
			s.lastDef[d] = j
		}
	}

	// Successor lists, in edge order (ascending target per source).
	for i := 0; i < n; i++ {
		s.succStart[i+1] += s.succStart[i]
	}
	s.succs = resize(s.succs, len(s.edges))
	next := s.seen // reuse as the per-source fill cursor
	copy(next, s.succStart[:n])
	for _, e := range s.edges {
		s.succs[next[e.from]] = e.to
		next[e.from]++
	}
}

// resize returns a slice of length n, reusing xs's storage when it fits.
func resize(xs []int, n int) []int {
	if cap(xs) < n {
		return make([]int, n)
	}
	return xs[:n]
}

// minHeap is a binary min-heap of keys packing an ordering value in the
// high 32 bits and an instruction index in the low 32 bits, so that ties
// on the value break toward the earlier instruction. The ready heaps key
// on -prio (highest priority first), the pending heap on readyAt.
type minHeap []int64

func key(v, i int) int64 { return int64(v)<<32 | int64(i) }

func (h minHeap) peekIndex() int { return int(h[0] & 0xffffffff) }

func (h *minHeap) push(k int64) {
	*h = append(*h, k)
	x := *h
	for c := len(x) - 1; c > 0; {
		p := (c - 1) / 2
		if x[p] <= x[c] {
			break
		}
		x[p], x[c] = x[c], x[p]
		c = p
	}
}

func (h *minHeap) popIndex() int {
	x := *h
	top := x[0]
	last := len(x) - 1
	x[0] = x[last]
	x = x[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && x[c+1] < x[c] {
			c++
		}
		if x[p] <= x[c] {
			break
		}
		x[p], x[c] = x[c], x[p]
		p = c
	}
	*h = x
	return int(top & 0xffffffff)
}
