package pipeline

import (
	"math/rand"
	"testing"

	"vanguard/internal/core"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
)

// randomLoopProgram builds a structured random program: an init block, a
// counted loop whose body contains a random hammock and a helper call, and
// an epilogue dumping live registers to memory. Every memory access stays
// in a safe region, so both simulators must complete fault-free.
func randomLoopProgram(r *rand.Rand) (*ir.Program, *mem.Memory) {
	return randomStrideLoopProgram(r, 8)
}

// randomStrideLoopProgram is randomLoopProgram with the per-iteration
// hammock condition words laid out stride bytes apart. A stride beyond
// the caches' reach makes the loop memory-bound: most iterations wait a
// whole memory miss on the branch condition.
func randomStrideLoopProgram(r *rand.Rand, stride int64) (*ir.Program, *mem.Memory) {
	const dataBase = int64(1 << 20)
	dsts := []isa.Reg{isa.R(8), isa.R(9), isa.R(10), isa.R(11), isa.R(12)}
	srcs := []isa.Reg{isa.R(2), isa.R(3), isa.R(8), isa.R(9), isa.R(10), isa.R(11), isa.R(12)}
	randInstr := func() isa.Instr {
		switch r.Intn(7) {
		case 0:
			return ir.Ld(dsts[r.Intn(len(dsts))], isa.R(1), int64(r.Intn(12))*8)
		case 1:
			return ir.St(isa.R(1), 256+int64(r.Intn(12))*8, srcs[r.Intn(len(srcs))])
		case 2:
			return ir.Addi(dsts[r.Intn(len(dsts))], srcs[r.Intn(len(srcs))], int64(r.Intn(50)))
		default:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.CMPLT}
			return ir.Op3(ops[r.Intn(len(ops))], dsts[r.Intn(len(dsts))],
				srcs[r.Intn(len(srcs))], srcs[r.Intn(len(srcs))])
		}
	}

	helper := &ir.Func{Name: "helper"}
	hb := helper.AddBlock("entry")
	for i := 0; i < 1+r.Intn(4); i++ {
		helper.Emit(hb, randInstr())
	}
	helper.Emit(hb, ir.Ret())

	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	head := f.AddBlock("head")
	armB := f.AddBlock("B")
	armC := f.AddBlock("C")
	join := f.AddBlock("join")
	latch := f.AddBlock("latch")
	done := f.AddBlock("done")

	iters := int64(50 + r.Intn(200))
	f.Emit(init,
		ir.Li(isa.R(0), 0),
		ir.Li(isa.R(1), dataBase),
		ir.Li(isa.R(2), int64(r.Intn(100))),
		ir.Li(isa.R(3), int64(r.Intn(100))),
		ir.Li(isa.R(5), 0), // loop counter
		ir.Li(isa.R(6), iters),
	)
	// Hammock condition from the iteration-indexed script.
	f.Emit(head,
		ir.Muli(isa.R(7), isa.R(5), stride),
		ir.Add(isa.R(7), isa.R(7), isa.R(1)),
		ir.Ld(isa.R(7), isa.R(7), 2048),
		ir.BrID(isa.R(7), armC, 1),
	)
	for i := 0; i < 1+r.Intn(5); i++ {
		f.Emit(armB, randInstr())
	}
	f.Emit(armB, ir.Jmp(join))
	for i := 0; i < 1+r.Intn(5); i++ {
		f.Emit(armC, randInstr())
	}
	f.Emit(join, ir.Call(1))
	f.Emit(latch,
		ir.Addi(isa.R(5), isa.R(5), 1),
		ir.Cmp(isa.CMPLT, isa.R(4), isa.R(5), isa.R(6)),
		ir.BrID(isa.R(4), head, 2),
	)
	for i, reg := range srcs {
		f.Emit(done, ir.St(isa.R(1), 512+int64(i)*8, reg))
	}
	f.Emit(done, ir.Halt())

	m := mem.New()
	for i := int64(0); i < 512; i += 8 {
		m.MustStore(uint64(dataBase+i), int64(r.Intn(1000)))
	}
	for i := int64(0); i < iters; i++ {
		m.MustStore(uint64(dataBase+2048+i*stride), int64(r.Intn(2)))
	}
	return &ir.Program{Funcs: []*ir.Func{f, helper}}, m
}

// TestDifferentialRandomPrograms is the heavyweight cross-simulator
// property: random structured programs — raw, scheduled, and decomposed —
// must produce identical architectural memory on the cycle-level machine
// and the golden-model interpreter, across machine widths.
func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog, m := randomLoopProgram(r)

		gm := m.Clone()
		if _, _, err := interp.Run(ir.MustLinearize(prog), gm, interp.Options{}); err != nil {
			t.Fatalf("seed %d golden: %v", seed, err)
		}

		variants := map[string]*ir.Program{"raw": prog.Clone()}

		schedP := prog.Clone()
		sched.Program(schedP, sched.DefaultModel(4))
		variants["scheduled"] = schedP

		trans := prog.Clone()
		prof := &profile.Profile{ByID: map[int]*profile.Branch{
			1: {ID: 1, Forward: true, Execs: 10000, Taken: 6000, Correct: 9200},
		}}
		if rep, err := core.Transform(trans, prof, core.DefaultOptions()); err != nil {
			t.Fatalf("seed %d transform: %v", seed, err)
		} else if len(rep.Converted) == 1 {
			sched.Program(trans, sched.DefaultModel(4))
			variants["decomposed+scheduled"] = trans
		}

		for name, p := range variants {
			for _, w := range []int{2, 8} {
				pm := m.Clone()
				mach := New(ir.MustLinearize(p), pm, DefaultConfig(w))
				if _, err := mach.Run(); err != nil {
					t.Fatalf("seed %d %s w%d: %v\n%s", seed, name, w, err, p)
				}
				if !pm.Equal(gm) {
					t.Fatalf("seed %d %s w%d: architectural divergence\n%s", seed, name, w, p)
				}
			}
		}
	}
}
