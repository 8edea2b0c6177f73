package sched_test

import (
	"fmt"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/core"
	"vanguard/internal/harness"
	"vanguard/internal/ir"
	"vanguard/internal/profile"
	"vanguard/internal/workload"
)

// unscheduled is one suite config's two binaries exactly as
// harness.BuildBinaries hands them to sched.Program: the baseline after
// core.SpeculateBiasedBranches and the experimental binary after
// core.Transform, both built from the harness.FastOptions TRAIN input.
type unscheduled struct {
	name      string // suite/config
	base, exp *ir.Program
}

// buildUnscheduled mirrors harness.BuildBinaries up to, but excluding,
// the scheduling step.
func buildUnscheduled(c workload.Config, o harness.Options) (base, exp *ir.Program, err error) {
	train, trainMem := c.Generate(o.TrainInput)
	prof, err := profile.Collect(ir.MustLinearize(train), trainMem, bpred.NewDefault(), 200_000_000)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: profile: %w", c.Name, err)
	}
	base = train.Clone()
	if _, err := core.SpeculateBiasedBranches(base, prof, o.Spec); err != nil {
		return nil, nil, fmt.Errorf("%s: baseline speculation: %w", c.Name, err)
	}
	exp = base.Clone()
	if _, err := core.Transform(exp, prof, o.Core); err != nil {
		return nil, nil, fmt.Errorf("%s: transform: %w", c.Name, err)
	}
	return base, exp, nil
}

// suitePrograms builds the unscheduled binaries of every config of the
// four suites, in suite order. The callers must not mutate the returned
// programs; schedule a Clone.
func suitePrograms(tb testing.TB) []unscheduled {
	tb.Helper()
	o := harness.FastOptions()
	var out []unscheduled
	for _, s := range workload.AllSuites() {
		for _, c := range workload.Suite(s) {
			base, exp, err := buildUnscheduled(c, o)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, unscheduled{name: s + "/" + c.Name, base: base, exp: exp})
		}
	}
	return out
}
