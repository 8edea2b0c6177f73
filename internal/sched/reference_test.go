package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vanguard/internal/ir"
	"vanguard/internal/isa"
)

// referenceRegion is the scheduler's original quadratic list scheduler,
// kept as the oracle the table-driven region must match instruction for
// instruction: it runs every instruction pair through mustOrder and, every
// cycle, rescans all instructions for ready ones and sorts them.
func referenceRegion(ins []isa.Instr, m Model) []isa.Instr {
	n := len(ins)
	if n <= 1 {
		return append([]isa.Instr(nil), ins...)
	}
	// Dependence edges and critical-path priorities.
	succs := make([][]int, n)
	npreds := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if mustOrder(ins[i], ins[j]) {
				succs[i] = append(succs[i], j)
				npreds[j]++
			}
		}
	}
	prio := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		p := 0
		for _, s := range succs[i] {
			if prio[s] > p {
				p = prio[s]
			}
		}
		prio[i] = p + m.latency(ins[i])
	}

	// Greedy machine-model walk.
	readyAt := make([]int, n) // earliest cycle each instruction may start
	done := make([]bool, n)
	var order []int
	cycle := 0
	for len(order) < n {
		var ready []int
		for i := 0; i < n; i++ {
			if !done[i] && npreds[i] == 0 && readyAt[i] <= cycle {
				ready = append(ready, i)
			}
		}
		sort.Slice(ready, func(x, y int) bool {
			if prio[ready[x]] != prio[ready[y]] {
				return prio[ready[x]] > prio[ready[y]]
			}
			return ready[x] < ready[y] // stable: original order
		})
		var used [isa.NumFUClasses]int
		issued := 0
		for _, i := range ready {
			if issued >= m.Width {
				break
			}
			fu := ins[i].Op.Unit()
			limit := m.IntUnits
			switch fu {
			case isa.FUMem:
				limit = m.MemUnits
			case isa.FUFP:
				limit = m.FPUnits
			}
			if used[fu] >= limit {
				continue
			}
			used[fu]++
			issued++
			done[i] = true
			order = append(order, i)
			for _, s := range succs[i] {
				npreds[s]--
				if t := cycle + m.latency(ins[i]); t > readyAt[s] {
					readyAt[s] = t
				}
			}
		}
		cycle++
	}
	out := make([]isa.Instr, n)
	for k, i := range order {
		out[k] = ins[i]
	}
	return out
}

// referenceBlock splits a block at control instructions exactly as Block
// does and schedules each region with referenceRegion.
func referenceBlock(ins []isa.Instr, m Model) []isa.Instr {
	var out []isa.Instr
	start := 0
	for i, in := range ins {
		if in.IsControl() {
			out = append(out, referenceRegion(ins[start:i], m)...)
			out = append(out, in)
			start = i + 1
		}
	}
	return append(out, referenceRegion(ins[start:], m)...)
}

// The fuzz encoding spends five bytes per instruction: opcode, Dst, Src1
// and Src2 as indices into fuzzOps and fuzzRegs (modulo their lengths),
// and a signed one-byte immediate. Immediates matter to the scheduler
// only as memory offsets, so one byte is enough.
var (
	fuzzOps = []isa.Op{
		isa.NOP, isa.ADD, isa.ADDI, isa.MUL, isa.DIV, isa.REM, isa.LI, isa.MOV,
		isa.CMPLT, isa.FADD, isa.FMUL, isa.FDIV, isa.FMOV, isa.CVTIF, isa.CVTFI,
		isa.LD, isa.LDS, isa.ST, isa.CMOV, isa.CALL, isa.BR,
	}
	fuzzRegs = []isa.Reg{
		isa.R(0), isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5), isa.R(6),
		isa.R(7), isa.R(8), isa.R(9), isa.F(0), isa.F(1), isa.F(2), isa.F(3),
		isa.F(4), isa.F(5),
	}
)

const maxFuzzInstrs = 256

func decodeBlock(data []byte) []isa.Instr {
	var ins []isa.Instr
	for ; len(data) >= 5 && len(ins) < maxFuzzInstrs; data = data[5:] {
		in := isa.Instr{
			Op:     fuzzOps[int(data[0])%len(fuzzOps)],
			Dst:    fuzzRegs[int(data[1])%len(fuzzRegs)],
			Src1:   fuzzRegs[int(data[2])%len(fuzzRegs)],
			Src2:   fuzzRegs[int(data[3])%len(fuzzRegs)],
			Imm:    int64(int8(data[4])),
			Target: -1,
		}
		if in.Op == isa.CALL || in.Op == isa.BR {
			in.Target = 0
		}
		ins = append(ins, in)
	}
	return ins
}

func encodeBlock(tb testing.TB, ins []isa.Instr) []byte {
	tb.Helper()
	reg := func(r isa.Reg) byte {
		if r == isa.NoReg {
			return 0 // unused operand
		}
		if k := slices.Index(fuzzRegs, r); k >= 0 {
			return byte(k)
		}
		tb.Fatalf("register %v has no fuzz encoding", r)
		return 0
	}
	var data []byte
	for _, in := range ins {
		op := slices.Index(fuzzOps, in.Op)
		if op < 0 || in.Imm != int64(int8(in.Imm)) {
			tb.Fatalf("%v has no fuzz encoding", in)
		}
		data = append(data, byte(op), reg(in.Dst), reg(in.Src1), reg(in.Src2), byte(int8(in.Imm)))
	}
	return data
}

// handCases are the hand-written scheduling scenarios of sched_test.go,
// with small immediates, as the fuzz seed corpus.
func handCases() [][]isa.Instr {
	r, f := isa.R, isa.F
	return [][]isa.Instr{
		{ir.Addi(r(2), r(2), 1), ir.Addi(r(3), r(3), 1), ir.Ld(r(4), r(1), 0), ir.Add(r(5), r(4), r(2))},
		{ir.Ld(r(4), r(1), 0), ir.Addi(r(2), r(2), 1), ir.Br(r(9), 0)},
		{ir.St(r(1), 0, r(2)), ir.Ld(r(3), r(1), 8), ir.Add(r(4), r(3), r(3))},
		{ir.St(r(1), 0, r(2)), ir.Ld(r(3), r(1), 0)},
		{ir.St(r(1), 0, r(2)), ir.Ld(r(3), r(5), 0)},
		{ir.Addi(r(2), r(2), 1), ir.Call(0), ir.Ld(r(4), r(1), 0)},
		{
			ir.Addi(r(3), r(2), 10), ir.Ld(r(4), r(1), 0), ir.Mul(r(5), r(3), r(2)),
			ir.Add(r(6), r(4), r(5)), ir.St(r(1), 8, r(6)), ir.Ld(r(7), r(1), 8),
			ir.Addi(r(7), r(7), 1), ir.St(r(1), 16, r(7)),
		},
		{},
		{ir.Nop()},
		{ir.Li(r(3), 7), {Op: isa.CMOV, Dst: r(3), Src1: r(1), Src2: r(2), Target: -1}, ir.Add(r(4), r(3), r(3))},
		{ir.St(r(1), 0, r(2)), ir.Addi(r(1), r(1), 8), ir.Ld(r(3), r(1), -8)},
		{
			{Op: isa.FDIV, Dst: f(1), Src1: f(2), Src2: f(3), Target: -1},
			{Op: isa.DIV, Dst: r(4), Src1: r(5), Src2: r(6), Target: -1},
			{Op: isa.FADD, Dst: f(4), Src1: f(1), Src2: f(1), Target: -1},
			ir.Add(r(7), r(4), r(4)),
		},
	}
}

// randomBlock draws a block biased toward dependence hazards: few
// registers, two shared memory bases with offsets that collide, base
// redefinitions mid-region, CMOV, FP and long-latency ops, and the odd
// control barrier.
func randomBlock(rng *rand.Rand) []isa.Instr {
	r, f := isa.R, isa.F
	ints := []isa.Reg{r(1), r(2), r(3), r(4), r(5), r(6)}
	fps := []isa.Reg{f(0), f(1), f(2)}
	pick := func(rs []isa.Reg) isa.Reg { return rs[rng.Intn(len(rs))] }
	base := func() isa.Reg { return r(1 + rng.Intn(2)) }
	off := func() int64 { return 8 * int64(rng.Intn(3)-1) }
	n := 1 + rng.Intn(40)
	ins := make([]isa.Instr, 0, n)
	for len(ins) < n {
		var in isa.Instr
		switch rng.Intn(14) {
		case 0:
			in = ir.Ld(pick(ints), base(), off())
		case 1:
			in = ir.Ld(pick(ints), base(), off())
			in.Op = isa.LDS
		case 2, 3:
			in = ir.St(base(), off(), pick(ints))
		case 4:
			in = ir.Addi(base(), base(), 8*int64(rng.Intn(3)-1))
		case 5:
			in = isa.Instr{Op: isa.CMOV, Dst: pick(ints), Src1: pick(ints), Src2: pick(ints), Target: -1}
		case 6:
			in = isa.Instr{Op: isa.DIV, Dst: pick(ints), Src1: pick(ints), Src2: pick(ints), Target: -1}
		case 7:
			in = isa.Instr{Op: isa.FDIV, Dst: pick(fps), Src1: pick(fps), Src2: pick(fps), Target: -1}
		case 8:
			in = isa.Instr{Op: isa.FADD, Dst: pick(fps), Src1: pick(fps), Src2: pick(fps), Target: -1}
		case 9:
			in = isa.Instr{Op: isa.CVTIF, Dst: pick(fps), Src1: pick(ints), Target: -1}
		case 10:
			in = ir.Mul(pick(ints), pick(ints), pick(ints))
		case 11:
			in = ir.Li(pick(ints), int64(rng.Intn(100)))
		case 12:
			if rng.Intn(4) == 0 {
				in = ir.Call(0)
			} else {
				in = ir.Add(pick(ints), pick(ints), pick(ints))
			}
		default:
			in = ir.Add(pick(ints), pick(ints), pick(ints))
		}
		ins = append(ins, in)
	}
	return ins
}

// FuzzSchedRegion checks that Block schedules every block exactly as the
// quadratic reference does, at widths 1, 2, 4 and 8. The seed corpus is
// the hand-written cases plus a fixed set of hazard-biased random blocks,
// so plain `go test` runs the differential without -fuzz.
func FuzzSchedRegion(f *testing.F) {
	for _, ins := range handCases() {
		f.Add(encodeBlock(f, ins))
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 500; k++ {
		f.Add(encodeBlock(f, randomBlock(rng)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ins := decodeBlock(data)
		for _, w := range []int{1, 2, 4, 8} {
			m := DefaultModel(w)
			b := &ir.Block{Instrs: slices.Clone(ins)}
			Block(b, m)
			if want := referenceBlock(ins, m); !slices.Equal(b.Instrs, want) {
				t.Fatalf("width %d: schedule differs from the reference\nin:   %v\ngot:  %v\nwant: %v", w, ins, b.Instrs, want)
			}
		}
	})
}
