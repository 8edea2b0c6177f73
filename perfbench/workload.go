package main

import (
	"fmt"
	"runtime"
	"strconv"

	"vanguard/internal/harness"
	"vanguard/internal/ir"
	"vanguard/internal/pipeline"
	"vanguard/internal/workload"
)

// A workload is one named set of inputs the benchmark runs. The three
// workloads stress different layers of the reproduction:
//
//   - paper-fast: the reduced-input evaluation (`spec -fast -all`) against
//     an empty run cache — the build layers and the simulator both matter.
//   - paper-fast-warm: the same job set against a run cache primed during
//     set-up — only the uncacheable build units compute, so the compiler
//     layers (sched above all) dominate and the cache serves reads.
//   - seed-sweep: one benchmark over many REF seeds, the ablation shape —
//     simulation and per-machine set-up dominate, one build.
type workloadSpec struct {
	name string
	// warm workloads measure against a run cache primed during set-up.
	warm bool
	// digest names the pinned per-unit statistics file under digestDir;
	// the warm workload delivers exactly the cold one's results.
	digest string
}

var workloads = []workloadSpec{
	{name: "paper-fast", digest: "paper-fast"},
	{name: "paper-fast-warm", warm: true, digest: "paper-fast"},
	{name: "seed-sweep", digest: "seed-sweep"},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

const (
	sweepBench = "perlbench" // shared with BenchmarkSim* for continuity
	sweepSeeds = 32
	refIters   = 1000 // harness.FastOptions' REF iteration count
)

// refSeed derives the i-th REF seed of a workload from the benchmark
// seed. Seed 0 is the default and reproduces the canonical inputs
// (harness.FastOptions' 202/303, the sweep's 1000 and up); any other seed
// is mixed (splitmix64) into a positive 62-bit value, so nearby benchmark
// seeds give unrelated inputs.
func refSeed(seed int64, i int, canonical int64) int64 {
	if seed == 0 {
		return canonical
	}
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2)
}

// options returns the harness options of a workload at a seed: the
// FastOptions inputs with REF seeds derived from the benchmark seed, one
// engine worker per CPU, every simulation verified against the golden
// model, every observer off.
func options(w workloadSpec, seed int64) harness.Options {
	o := harness.FastOptions()
	o.Jobs = runtime.NumCPU()
	if w.name == "seed-sweep" {
		base := refSeed(seed, 0, 1000)
		o.RefInputs = make([]workload.Input, sweepSeeds)
		for i := range o.RefInputs {
			o.RefInputs[i] = workload.Input{Seed: base + int64(i), Iters: refIters}
		}
		return o
	}
	o.RefInputs = []workload.Input{
		{Seed: refSeed(seed, 0, 202), Iters: refIters},
		{Seed: refSeed(seed, 1, 303), Iters: refIters},
	}
	return o
}

// A call is one harness entry point the workload invokes; each is one
// experiment-engine job set.
type call struct {
	kind string // "suite", "icache" or "bench"
	arg  string // suite or benchmark name
}

func (c call) name() string {
	if c.kind == "suite" {
		return c.arg
	}
	return c.kind
}

// plan lists the harness calls of a workload in the order `spec -all`
// makes them: the four suites, then the Section 6.1 I-cache study.
func plan(w workloadSpec) []call {
	if w.name == "seed-sweep" {
		return []call{{kind: "bench", arg: sweepBench}}
	}
	var cs []call
	for _, s := range workload.AllSuites() {
		cs = append(cs, call{kind: "suite", arg: s})
	}
	return append(cs, call{kind: "icache", arg: "int2006"})
}

// jobSpec is one (benchmark, options) experiment of a call, in the order
// the harness enumerates it.
type jobSpec struct {
	c workload.Config
	o harness.Options
}

// jobs mirrors the harness' job enumeration for a call: one job per
// benchmark, or for the I-cache study a 32KB and a 24KB job per benchmark
// at width 4 (harness.RunICacheStudy).
func (c call) jobs(o harness.Options) []jobSpec {
	switch c.kind {
	case "bench":
		cfg, _ := workload.ByName(c.arg)
		return []jobSpec{{cfg, o}}
	case "icache":
		big, small := o, o
		big.Widths, small.Widths = []int{4}, []int{4}
		small.ICacheBytes = 24 << 10
		var js []jobSpec
		for _, cfg := range workload.Suite(c.arg) {
			js = append(js, jobSpec{cfg, big}, jobSpec{cfg, small})
		}
		return js
	}
	var js []jobSpec
	for _, cfg := range workload.Suite(c.arg) {
		js = append(js, jobSpec{cfg, o})
	}
	return js
}

// units counts the engine units a call enumerates: per job, one build
// unit plus one simulation per (input, width, binary).
func (c call) units(o harness.Options) int {
	n := 0
	for _, j := range c.jobs(o) {
		n += 1 + 2*len(j.o.RefInputs)*len(j.o.Widths)
	}
	return n
}

// outcome is what one harness call delivered: a digest record per
// simulation (or per I-cache study row) and the committed simulated
// instructions in the returned results.
type outcome struct {
	records   []record
	committed int64
	bad       []string // simulations that did not halt cleanly
}

// runCall invokes the call's public harness entry point.
func runCall(c call, o harness.Options) (outcome, error) {
	switch c.kind {
	case "icache":
		rows, err := harness.RunICacheStudy(c.arg, o)
		if err != nil {
			return outcome{}, err
		}
		var out outcome
		for _, r := range rows {
			out.records = append(out.records, icacheRecord(r.Benchmark, r.SlowdownPct, r.MissUnderMispred))
		}
		return out, nil
	case "bench":
		cfg, ok := workload.ByName(c.arg)
		if !ok {
			return outcome{}, fmt.Errorf("unknown benchmark %q", c.arg)
		}
		r, err := harness.RunBenchmark(cfg, o)
		if err != nil {
			return outcome{}, err
		}
		return benchOutcome(c, []*harness.BenchResult{r}), nil
	}
	rs, err := harness.RunSuite(c.arg, o)
	if err != nil {
		return outcome{}, err
	}
	return benchOutcome(c, rs), nil
}

func benchOutcome(c call, rs []*harness.BenchResult) outcome {
	var out outcome
	for _, r := range rs {
		for _, in := range r.Inputs {
			for _, wr := range in.Runs {
				for _, s := range []struct {
					bin string
					st  *pipeline.Stats
				}{{"base", wr.Base}, {"exp", wr.Exp}} {
					label := simLabel(c, r.Config.Name, in.Input, wr.Width, s.bin)
					if err := sane(label, s.st); err != nil {
						out.bad = append(out.bad, err.Error())
						continue
					}
					out.records = append(out.records, statsRecord(label, s.st))
					out.committed += s.st.Committed
				}
			}
		}
	}
	return out
}

// simLabel names one simulation unit across runs and processes.
func simLabel(c call, bench string, in workload.Input, width int, bin string) string {
	return fmt.Sprintf("%s/%s/seed=%d,iters=%d/w%d/%s", c.name(), bench, in.Seed, in.Iters, width, bin)
}

// icacheRecord renders one Section 6.1 row (harness.ICacheStudy) exactly.
func icacheRecord(bench string, slowdownPct, missUnderMispred float64) record {
	return record{
		key: "icache/" + bench,
		val: "slowdown_pct=" + strconv.FormatFloat(slowdownPct, 'g', -1, 64) +
			" miss_under_mispred=" + strconv.FormatFloat(missUnderMispred, 'g', -1, 64),
	}
}

// runResult is one untraced pass over a workload's plan.
type runResult struct {
	records   []record
	committed int64
	attempted int
	failed    int
	errs      []string
}

// runPlan runs every call through the harness. A failing call
// fails all of its units: the harness cancels the job set on the first
// error, so none of its results can be used.
func runPlan(calls []call, o harness.Options) runResult {
	var rr runResult
	for _, c := range calls {
		n := c.units(o)
		rr.attempted += n
		out, err := runCall(c, o)
		if err != nil {
			rr.failed += n
			rr.errs = append(rr.errs, fmt.Sprintf("%s: %v", c.name(), err))
			continue
		}
		rr.records = append(rr.records, out.records...)
		rr.committed += out.committed
		rr.failed += len(out.bad)
		rr.errs = append(rr.errs, out.bad...)
	}
	return rr
}

// prepareInputs is a cold workload's set-up: generate every input the
// plan's jobs use from the seed and check that each program linearizes.
func prepareInputs(w workloadSpec, seed int64) error {
	o := options(w, seed)
	seen := map[string]bool{}
	for _, c := range plan(w) {
		for _, j := range c.jobs(o) {
			for _, in := range append([]workload.Input{j.o.TrainInput}, j.o.RefInputs...) {
				k := fmt.Sprintf("%s/%d/%d", j.c.Name, in.Seed, in.Iters)
				if seen[k] {
					continue
				}
				seen[k] = true
				p, _ := j.c.Generate(in)
				if _, err := ir.Linearize(p); err != nil {
					return fmt.Errorf("%s input %+v: %w", j.c.Name, in, err)
				}
			}
		}
	}
	return nil
}
