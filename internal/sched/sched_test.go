package sched

import (
	"strings"
	"testing"

	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

func TestLoadsScheduledEarly(t *testing.T) {
	// add; add; ld; use(ld) — the load should float to the front so its
	// latency overlaps the adds.
	b := &ir.Block{Instrs: []isa.Instr{
		ir.Addi(isa.R(2), isa.R(2), 1),
		ir.Addi(isa.R(3), isa.R(3), 1),
		ir.Ld(isa.R(4), isa.R(1), 0),
		ir.Add(isa.R(5), isa.R(4), isa.R(2)),
	}}
	Block(b, DefaultModel(4))
	if b.Instrs[0].Op != isa.LD {
		t.Errorf("load not hoisted to front:\n%v", b.Instrs)
	}
	if b.Instrs[len(b.Instrs)-1].Op != isa.ADD {
		t.Errorf("dependent use must stay last:\n%v", b.Instrs)
	}
}

// TestZeroWidthModelPanics pins the up-front check: at Width 0 no
// instruction ever issues, so Program and Block refuse the model instead
// of looping forever on a region of two or more instructions.
func TestZeroWidthModelPanics(t *testing.T) {
	for name, schedule := range map[string]func(){
		"Program": func() { Program(&ir.Program{}, DefaultModel(0)) },
		"Block":   func() { Block(&ir.Block{}, DefaultModel(0)) },
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "Width must be at least 1") {
					t.Errorf("%s: panic %v, want a Width message", name, r)
				}
			}()
			schedule()
		}()
	}
}

func TestTerminatorStaysLast(t *testing.T) {
	b := &ir.Block{Instrs: []isa.Instr{
		ir.Br(isa.R(9), 0),
	}}
	b.Instrs = append([]isa.Instr{
		ir.Ld(isa.R(4), isa.R(1), 0),
		ir.Addi(isa.R(2), isa.R(2), 1),
	}, b.Instrs...)
	Block(b, DefaultModel(4))
	if last := b.Instrs[len(b.Instrs)-1]; last.Op != isa.BR {
		t.Errorf("terminator moved: %v", b.Instrs)
	}
}

func TestMemoryDisambiguation(t *testing.T) {
	// st [r1+0]; ld [r1+8] — provably disjoint: load may pass the store.
	b := &ir.Block{Instrs: []isa.Instr{
		ir.St(isa.R(1), 0, isa.R(2)),
		ir.Ld(isa.R(3), isa.R(1), 8),
		ir.Add(isa.R(4), isa.R(3), isa.R(3)),
	}}
	Block(b, DefaultModel(4))
	if b.Instrs[0].Op != isa.LD {
		t.Errorf("disjoint load did not pass the store: %v", b.Instrs)
	}
	// Same offset: must stay ordered.
	b2 := &ir.Block{Instrs: []isa.Instr{
		ir.St(isa.R(1), 0, isa.R(2)),
		ir.Ld(isa.R(3), isa.R(1), 0),
	}}
	Block(b2, DefaultModel(4))
	if b2.Instrs[0].Op != isa.ST {
		t.Errorf("aliasing load passed the store: %v", b2.Instrs)
	}
	// Different bases: conservatively ordered.
	b3 := &ir.Block{Instrs: []isa.Instr{
		ir.St(isa.R(1), 0, isa.R(2)),
		ir.Ld(isa.R(3), isa.R(5), 0),
	}}
	Block(b3, DefaultModel(4))
	if b3.Instrs[0].Op != isa.ST {
		t.Errorf("may-alias load passed the store: %v", b3.Instrs)
	}
}

func TestCallIsBarrier(t *testing.T) {
	b := &ir.Block{Instrs: []isa.Instr{
		ir.Addi(isa.R(2), isa.R(2), 1),
		ir.Call(0),
		ir.Ld(isa.R(4), isa.R(1), 0),
	}}
	Block(b, DefaultModel(4))
	if b.Instrs[1].Op != isa.CALL {
		t.Errorf("call moved: %v", b.Instrs)
	}
}

// TestSchedulingPreservesSemantics runs a program before/after scheduling
// and compares results.
func TestSchedulingPreservesSemantics(t *testing.T) {
	build := func() *ir.Program {
		f := &ir.Func{Name: "main"}
		init := f.AddBlock("init")
		body := f.AddBlock("body")
		end := f.AddBlock("end")
		f.Emit(init, ir.Li(isa.R(1), mem.FaultBoundary), ir.Li(isa.R(2), 3))
		f.Emit(body,
			ir.Addi(isa.R(3), isa.R(2), 10),
			ir.Ld(isa.R(4), isa.R(1), 0),
			ir.Mul(isa.R(5), isa.R(3), isa.R(2)),
			ir.Add(isa.R(6), isa.R(4), isa.R(5)),
			ir.St(isa.R(1), 8, isa.R(6)),
			ir.Ld(isa.R(7), isa.R(1), 8), // must see the store above
			ir.Addi(isa.R(7), isa.R(7), 1),
			ir.St(isa.R(1), 16, isa.R(7)),
		)
		f.Emit(end, ir.Halt())
		return &ir.Program{Funcs: []*ir.Func{f}}
	}
	gm := mem.New()
	gm.MustStore(mem.FaultBoundary, 100)
	if _, _, err := interp.Run(ir.MustLinearize(build()), gm, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	p := build()
	Program(p, DefaultModel(4))
	sm := mem.New()
	sm.MustStore(mem.FaultBoundary, 100)
	if _, _, err := interp.Run(ir.MustLinearize(p), sm, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	if !sm.Equal(gm) {
		t.Errorf("scheduling changed semantics:\n%s", p)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	b := &ir.Block{}
	Block(b, DefaultModel(2))
	if len(b.Instrs) != 0 {
		t.Error("empty block changed")
	}
	b2 := &ir.Block{Instrs: []isa.Instr{ir.Nop()}}
	Block(b2, DefaultModel(2))
	if len(b2.Instrs) != 1 {
		t.Error("singleton block changed")
	}
}

func TestCMOVDependences(t *testing.T) {
	// cmov reads its destination: a prior write to the dest register must
	// stay ordered before it, and a later read after it.
	b := &ir.Block{Instrs: []isa.Instr{
		ir.Li(isa.R(3), 7),
		{Op: isa.CMOV, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2), Target: -1},
		ir.Add(isa.R(4), isa.R(3), isa.R(3)),
	}}
	Block(b, DefaultModel(4))
	if b.Instrs[0].Op != isa.LI || b.Instrs[1].Op != isa.CMOV || b.Instrs[2].Op != isa.ADD {
		t.Errorf("cmov dependences violated: %v", b.Instrs)
	}
}

func TestBaseRedefinitionKeepsOrder(t *testing.T) {
	// st [r1+0]; addi r1,r1,8; ld [r1-8] — the same word through a
	// redefined base. The offsets differ, so memOrder calls the pair
	// disjoint; the store's read of r1 (WAR into the addi) and the addi's
	// write feeding the load (RAW) must still keep the load after the
	// store, even though its consumer makes it the most urgent work.
	b := &ir.Block{Instrs: []isa.Instr{
		ir.St(isa.R(1), 0, isa.R(2)),
		ir.Addi(isa.R(1), isa.R(1), 8),
		ir.Ld(isa.R(3), isa.R(1), -8),
		ir.Add(isa.R(4), isa.R(3), isa.R(3)),
	}}
	Block(b, DefaultModel(4))
	pos := map[isa.Op]int{}
	for k, ins := range b.Instrs {
		pos[ins.Op] = k
	}
	if !(pos[isa.ST] < pos[isa.ADDI] && pos[isa.ADDI] < pos[isa.LD]) {
		t.Errorf("load passed the store through a redefined base: %v", b.Instrs)
	}
}
