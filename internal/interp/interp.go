// Package interp is the functional (instruction-accurate) simulator: the
// golden model used for program equivalence checks, for profiling runs
// (branch bias and predictability collection), and as the reference the
// timing simulator's architectural results are validated against.
package interp

import (
	"fmt"

	"vanguard/internal/exec"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

// Options configure a functional run.
type Options struct {
	// MaxInstrs caps the dynamic instruction count; 0 means DefaultMaxInstrs.
	MaxInstrs int64
	// PredictOracle chooses the direction of PREDICT instructions. nil
	// predicts not-taken (fall through to the first resolution block).
	// Program results are independent of this choice by construction of
	// the decomposed branch transformation; tests exercise adversarial
	// oracles to prove it.
	PredictOracle func(pc, branchID int) bool
	// OnBranch, if non-nil, observes every executed BR/PREDICT/RESOLVE
	// with its architectural outcome.
	OnBranch func(pc int, ins isa.Instr, res exec.Result)
	// Deprecated: ignored; kernels always. Kept only for
	// perfbench/replay.go.
	Dispatch exec.Dispatch

	// stepOracle steps every instruction through the reference exec.Step
	// instead of its kernel or fused run: the tests' kernel-vs-Step
	// differentials set it.
	stepOracle bool
}

// DefaultMaxInstrs bounds runaway programs.
const DefaultMaxInstrs = 500_000_000

// Stats summarize a functional run.
type Stats struct {
	Instrs     int64
	Branches   int64 // executed BR instructions
	Taken      int64 // taken BR instructions
	Predicts   int64
	Resolves   int64
	ResolveHit int64 // resolves that fired (mispredictions repaired)
	Loads      int64
	Stores     int64
	Suppressed int64 // LDS faults suppressed
}

// Run executes the image to HALT (or the instruction cap) over memory m,
// which is mutated in place. It returns the final architectural state.
//
// The image is compiled once up front: every PC gets its
// operand-resolved kernel, and maximal straight-line runs of pure
// register instructions execute as one fused unit — no per-instruction
// Result, error check or stats dispatch, since a fused run by
// construction contains no branch, memory op or faultable instruction and
// so can only advance Instrs. An oracle-steered PREDICT steps the
// reference exec.Step.
func Run(im *ir.Image, m *mem.Memory, opt Options) (*exec.State, *Stats, error) {
	st := exec.NewState(m, im.Entry)
	stats := &Stats{}
	limit := opt.MaxInstrs
	if limit <= 0 {
		limit = DefaultMaxInstrs
	}
	prog, err := exec.CompileProgram(im.Instrs)
	if err != nil {
		return st, stats, fmt.Errorf("interp: %w", err)
	}
	for !st.Halted {
		if stats.Instrs >= limit {
			return st, stats, fmt.Errorf("interp: instruction limit %d exceeded at pc %d", limit, st.PC)
		}
		if st.PC < 0 || st.PC >= len(im.Instrs) {
			return st, stats, fmt.Errorf("interp: pc %d outside image [0,%d)", st.PC, len(im.Instrs))
		}
		pc := st.PC
		// Fused fast path: execute the whole straight-line run from here,
		// provided it fits under the instruction cap (a run that would
		// cross the cap falls through to per-instruction stepping so the
		// limit error reports the exact PC it tripped at).
		if n := prog.FusedLen(pc); n > 0 && !opt.stepOracle && stats.Instrs+int64(n) <= limit {
			prog.RunFused(pc, st)
			stats.Instrs += int64(n)
			continue
		}
		ins := &im.Instrs[st.PC]
		var res exec.Result
		if !opt.stepOracle && !(ins.Op == isa.PREDICT && opt.PredictOracle != nil) {
			// Kernels compile PREDICT as the not-taken choice; an oracle-
			// steered PREDICT routes through Step, everything else through
			// its kernel.
			res, err = prog.Kernels[pc](st)
		} else {
			predictTaken := false
			if ins.Op == isa.PREDICT && opt.PredictOracle != nil {
				predictTaken = opt.PredictOracle(st.PC, ins.BranchID)
			}
			res, err = exec.Step(st, ins, predictTaken)
		}
		if err != nil {
			return st, stats, fmt.Errorf("interp: pc %d (%v): %w", pc, *ins, err)
		}
		stats.Instrs++
		switch ins.Op {
		case isa.BR:
			stats.Branches++
			if res.Taken {
				stats.Taken++
			}
		case isa.PREDICT:
			stats.Predicts++
		case isa.RESOLVE:
			stats.Resolves++
			if res.Taken {
				stats.ResolveHit++
			}
		case isa.LD, isa.LDS:
			stats.Loads++
			if res.SuppressedFault {
				stats.Suppressed++
			}
		case isa.ST:
			stats.Stores++
		}
		if opt.OnBranch != nil && (ins.Op == isa.BR || ins.Op == isa.PREDICT || ins.Op == isa.RESOLVE) {
			opt.OnBranch(pc, *ins, res)
		}
	}
	return st, stats, nil
}
