package interp

import (
	"reflect"
	"testing"

	"vanguard/internal/exec"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

// interpPrograms collects the shapes on which the functional simulator's
// kernels must agree with the reference exec.Step: tight loops (fused straight-line bodies), calls
// and returns, decomposed branches, and LDS fault suppression.
func interpPrograms() map[string]*ir.Program {
	lds := &ir.Func{Name: "main"}
	b := lds.AddBlock("entry")
	lds.Emit(b,
		ir.Li(isa.R(1), mem.FaultBoundary),
		ir.Li(isa.R(2), 8), // below the boundary: LDS suppresses the fault
		isa.Instr{Op: isa.LDS, Dst: isa.R(3), Src1: isa.R(2)},
		isa.Instr{Op: isa.CMOV, Dst: isa.R(4), Src1: isa.R(2), Src2: isa.R(1)},
		ir.St(isa.R(1), 0, isa.R(4)),
		ir.Halt(),
	)
	return map[string]*ir.Program{
		"sumLoop":      sumLoop(200, mem.FaultBoundary),
		"decomposed-t": decomposedHammock(1),
		"decomposed-n": decomposedHammock(0),
		"lds":          &ir.Program{Funcs: []*ir.Func{lds}},
	}
}

// TestInterpDispatchDifferential: the functional simulator's kernels and
// fused runs must produce the final state, stats, memory and branch-event
// streams of the reference exec.Step oracle — including with an
// adversarial PREDICT oracle, which forces the oracle-steered Step path to
// interleave with compiled kernels.
func TestInterpDispatchDifferential(t *testing.T) {
	oracles := map[string]func(pc, branchID int) bool{
		"nil":       nil,
		"all-taken": func(pc, branchID int) bool { return true },
		"alternate": func(pc, branchID int) bool { return pc%2 == 0 },
	}
	type event struct {
		pc  int
		op  isa.Op
		res exec.Result
	}
	for pname, prog := range interpPrograms() {
		for oname, oracle := range oracles {
			run := func(stepOracle bool) (*exec.State, *Stats, *mem.Memory, []event) {
				t.Helper()
				m := mem.New()
				var evs []event
				opt := Options{
					PredictOracle: oracle,
					OnBranch: func(pc int, ins isa.Instr, res exec.Result) {
						evs = append(evs, event{pc, ins.Op, res})
					},
					stepOracle: stepOracle,
				}
				st, stats, err := Run(ir.MustLinearize(prog), m, opt)
				if err != nil {
					t.Fatalf("%s/%s stepOracle=%v: %v", pname, oname, stepOracle, err)
				}
				return st, stats, m, evs
			}
			sst, sstats, sm, sev := run(true)
			kst, kstats, km, kev := run(false)
			if *sstats != *kstats {
				t.Fatalf("%s/%s: stats diverged:\nexec.Step: %+v\nkernels:   %+v", pname, oname, sstats, kstats)
			}
			if sst.Regs != kst.Regs || sst.Poison != kst.Poison || sst.PC != kst.PC || sst.Halted != kst.Halted {
				t.Fatalf("%s/%s: final state diverged", pname, oname)
			}
			if !sm.Equal(km) {
				t.Fatalf("%s/%s: memory diverged", pname, oname)
			}
			if !reflect.DeepEqual(sev, kev) {
				t.Fatalf("%s/%s: branch event streams diverged:\nexec.Step: %v\nkernels:   %v", pname, oname, sev, kev)
			}
		}
	}
}

// TestInterpDispatchLimit: the instruction cap must trip at the same
// count and PC under kernels as under the exec.Step oracle, even when a
// fused run would cross it.
func TestInterpDispatchLimit(t *testing.T) {
	f := &ir.Func{Name: "main"}
	l := f.AddBlock("loop")
	// Three fusable instructions then a jump: fused runs of length 3.
	f.Emit(l,
		ir.Addi(isa.R(1), isa.R(1), 1),
		ir.Addi(isa.R(2), isa.R(2), 1),
		ir.Addi(isa.R(3), isa.R(3), 1),
		ir.Jmp(l),
	)
	im := ir.MustLinearize(&ir.Program{Funcs: []*ir.Func{f}})

	for _, limit := range []int64{5, 6, 7, 8} { // straddle run boundaries
		var msgs [2]string
		var insc [2]int64
		for i, stepOracle := range []bool{true, false} {
			_, stats, err := Run(im, mem.New(), Options{MaxInstrs: limit, stepOracle: stepOracle})
			if err == nil {
				t.Fatalf("limit %d stepOracle=%v: must trip the instruction cap", limit, stepOracle)
			}
			msgs[i] = err.Error()
			insc[i] = stats.Instrs
		}
		if msgs[0] != msgs[1] || insc[0] != insc[1] {
			t.Fatalf("limit %d: cap behavior diverged: %q (%d instrs) vs %q (%d instrs)",
				limit, msgs[0], insc[0], msgs[1], insc[1])
		}
	}
}
