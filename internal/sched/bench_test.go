package sched_test

import (
	"testing"

	"vanguard/internal/harness"
	"vanguard/internal/ir"
	"vanguard/internal/sched"
	"vanguard/internal/workload"
)

// BenchmarkSchedProgram times the build stage's scheduling step on the
// binaries harness.BuildBinaries schedules: gcc, whose replicated hot
// loop is one 12,000-instruction region (the scheduler's worst case in
// the suites), and mcf, a typical config of short regions. One op
// schedules both binaries at width 4; ns/instr divides by the
// instructions handed to sched.Program.
func BenchmarkSchedProgram(b *testing.B) {
	for _, name := range []string{"gcc", "mcf"} {
		b.Run(name, func(b *testing.B) {
			c, ok := workload.ByName(name)
			if !ok {
				b.Fatalf("no config %s", name)
			}
			base, exp, err := buildUnscheduled(c, harness.FastOptions())
			if err != nil {
				b.Fatal(err)
			}
			instrs := 0
			for _, p := range []*ir.Program{base, exp} {
				for _, f := range p.Funcs {
					for _, blk := range f.Blocks {
						instrs += len(blk.Instrs)
					}
				}
			}
			m := sched.DefaultModel(4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pb, pe := base.Clone(), exp.Clone()
				b.StartTimer()
				sched.Program(pb, m)
				sched.Program(pe, m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
		})
	}
}
