package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vanguard/internal/core"
	"vanguard/internal/engine"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/pipeview"
	"vanguard/internal/profile"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// harnessVersion tags run-cache keys with the harness-level simulation
// recipe (BuildBinaries pipeline, scheduling model, verification
// discipline). Bump it when a change alters simulated results without
// touching the engine package. v2: simKey gained the Attr field, so
// attributed runs (whose Stats carry an attribution report) never alias
// v1 entries cached without one. v3: simKey gained the Pipeview field,
// so pipeviewed runs (whose Stats carry a lifetime-capture report) never
// alias v2 entries cached without one. v4: the simulator core grew the
// lane-parallel stepping path (since removed) — laned and scalar runs
// were proven byte-identical, but entries cached before the lane core
// existed must never alias entries computed through it, so the whole
// namespace moved. v5: simulations dispatch through predecoded
// kernels by default and simKey gained the Dispatch field. v6:
// simKeyMaterial gained the Probe field, so probed runs (whose Stats
// carry a predictor-observatory study) never alias v5 entries cached
// without one. v7: the exec.Step switch is no longer a runtime path, so
// simKeyMaterial lost the Dispatch field. Build-summary keys (buildKey)
// carry it too, so a recipe change retires both kinds of entry.
const harnessVersion = "harness/v7"

// benchJob is one (benchmark, options) experiment. The engine expands it
// into a build unit (profile, transform, schedule — its cached result is
// the buildSummary the reports read) plus one simulation unit per
// (input, width, binary).
type benchJob struct {
	c    workload.Config
	o    Options
	arts *jobArts
	// binaries lists what the job simulates per (input, width): both
	// binaries unless its caller reads only one (the I-cache study reads
	// the baseline alone).
	binaries []string
}

// buildSummary is everything the tables and reports read of a job's
// build: the TRAIN profile, the transform report and the static code
// sizes. It is the build unit's result, so the run cache serves it on a
// warm rerun while the binaries themselves are built only when a
// simulation misses.
type buildSummary struct {
	Profile               *profile.Profile
	Report                *core.Report
	StaticBase, StaticExp int
}

// jobArts holds the per-job shared build products. They are constructed
// at most once (sync.Once) by whichever unit needs them first; every
// product is read-only after construction, so simulation units on other
// workers may consume them concurrently. Each simulation still gets its
// own pipeline.Machine and memory clone — the "one machine per
// goroutine" contract DESIGN.md documents — over the shared compiled
// image of its (binary, iters).
type jobArts struct {
	once sync.Once
	err  error

	baseIm, expIm *ir.Image
	sum           *buildSummary

	inputs []*inputArts // parallel to o.RefInputs
	// codes holds one entry per (binary, iters) the REF inputs can need;
	// the map is filled by newBenchJob and only read afterwards.
	codes map[codeKey]*codeArts
}

// codeKey names one compiled image of a job: PatchIters bakes the
// iteration count into the binary, so seeds with equal Iters share it.
type codeKey struct {
	binary string
	iters  int64
}

// codeArts is one patched, compiled image, built once by whichever
// simulation needs it first.
type codeArts struct {
	once sync.Once
	code *pipeline.Code
}

// inputArts holds the per-(job, input) shared products: the initialized
// REF memory image (cloned per simulation) and, under Verify, the golden
// architectural memory every timing run is checked against.
type inputArts struct {
	once   sync.Once
	err    error
	refMem *mem.Memory
	gold   *mem.Memory
}

// bothBinaries is what a job simulates unless its caller says otherwise.
var bothBinaries = []string{"base", "exp"}

func newBenchJob(c workload.Config, o Options) *benchJob {
	a := &jobArts{inputs: make([]*inputArts, len(o.RefInputs)), codes: map[codeKey]*codeArts{}}
	for i, in := range o.RefInputs {
		a.inputs[i] = &inputArts{}
		for _, binary := range bothBinaries {
			if k := (codeKey{binary, in.Iters}); a.codes[k] == nil {
				a.codes[k] = &codeArts{}
			}
		}
	}
	return &benchJob{c: c, o: o, arts: a, binaries: bothBinaries}
}

// artifacts builds (once) and returns the job's shared binaries and their
// summary.
func (j *benchJob) artifacts() (*jobArts, error) {
	a := j.arts
	a.once.Do(func() {
		base, exp, prof, rep, err := BuildBinaries(j.c, j.o)
		if err != nil {
			a.err = err
			return
		}
		a.baseIm, a.expIm = ir.MustLinearize(base), ir.MustLinearize(exp)
		a.sum = &buildSummary{Profile: prof, Report: rep,
			StaticBase: base.NumInstrs(), StaticExp: exp.NumInstrs()}
	})
	return a, a.err
}

// code patches and compiles (once) the image of one (binary, iters).
func (j *benchJob) code(a *jobArts, binary string, iters int64) *pipeline.Code {
	ca := a.codes[codeKey{binary, iters}]
	ca.once.Do(func() {
		im := a.baseIm
		if binary == "exp" {
			im = a.expIm
		}
		ca.code = pipeline.Compile(j.c.PatchIters(im, iters))
	})
	return ca.code
}

// input builds (once) and returns the shared per-input products.
func (j *benchJob) input(i int) (*inputArts, error) {
	ia := j.arts.inputs[i]
	ia.once.Do(func() {
		prog, refMem := j.c.Generate(j.o.RefInputs[i])
		ia.refMem = refMem
		if j.o.Verify {
			goldMem := refMem.Clone()
			if _, _, err := interp.Run(ir.MustLinearize(prog), goldMem, interp.Options{}); err != nil {
				ia.err = fmt.Errorf("%s: golden run: %w", j.c.Name, err)
				return
			}
			ia.gold = goldMem
		}
	})
	return ia, ia.err
}

// simKeyMaterial is everything that determines one simulation unit's
// Stats — the workload, the TRAIN input the binaries were built from, the
// transform recipe, the machine overrides, and every result-bearing
// observability switch. The run-cache key audit test
// (TestRunCacheKeyCoversOptions) reconciles this struct and
// buildKeyMaterial against harness.Options and pipeline.Config field by
// field, so a new result-affecting option that is not threaded through
// here fails a test instead of silently aliasing cache entries.
type simKeyMaterial struct {
	Config       workload.Config
	Train        workload.Input
	Input        workload.Input
	Width        int
	Binary       string
	Predictor    string
	Core         core.Options
	Spec         core.SpeculateOptions
	DBBEntries   int
	ICacheBytes  int
	SampleWindow int64
	Attr         bool
	Probe        bool
	Pipeview     bool
}

// buildKeyMaterial is everything BuildBinaries reads, and so everything
// that determines a job's buildSummary. Simulation-only options (widths,
// REF inputs, machine overrides, observers) stay out, so jobs that
// differ only in what they simulate — the I-cache study's 32 KB and
// 24 KB jobs and the suite run they sit beside — share one entry.
type buildKeyMaterial struct {
	Config    workload.Config
	Train     workload.Input
	Predictor string
	Core      core.Options
	Spec      core.SpeculateOptions
}

// predictorKey names the job's predictor in its run-cache keys, or
// returns "" for an anonymous predictor (NewPredictor set without
// PredictorName), which cannot be hashed and so makes every unit of the
// job uncacheable.
func (j *benchJob) predictorKey() string {
	switch {
	case j.o.PredictorName != "":
		return j.o.PredictorName
	case j.o.NewPredictor != nil:
		return ""
	}
	return "default"
}

// buildKey derives the content key of the job's build unit, tagged
// "build" so it never meets a simulation key; "" when uncacheable.
func (j *benchJob) buildKey() string {
	pred := j.predictorKey()
	if pred == "" {
		return ""
	}
	return engine.Key(harnessVersion, "build", buildKeyMaterial{
		Config: j.c, Train: j.o.TrainInput, Predictor: pred,
		Core: j.o.Core, Spec: j.o.Spec,
	})
}

// simKey derives the content key of one simulation unit; "" when
// uncacheable (an anonymous predictor).
func (j *benchJob) simKey(in workload.Input, width int, binary string) string {
	pred := j.predictorKey()
	if pred == "" {
		return ""
	}
	return engine.Key(harnessVersion, simKeyMaterial{
		Config: j.c, Train: j.o.TrainInput, Input: in,
		Width: width, Binary: binary, Predictor: pred,
		Core: j.o.Core, Spec: j.o.Spec,
		DBBEntries: j.o.DBBEntries, ICacheBytes: j.o.ICacheBytes,
		SampleWindow: j.o.SampleWindow, Attr: j.o.Attr, Probe: j.o.Probe,
		Pipeview: j.o.PipeviewBench == j.c.Name,
	})
}

// simulate executes one (input, width, binary) timing run over the shared
// compiled image and verifies it against the golden model.
func (j *benchJob) simulate(inputIdx, width int, binary string) (*pipeline.Stats, error) {
	a, err := j.artifacts()
	if err != nil {
		return nil, err
	}
	ia, err := j.input(inputIdx)
	if err != nil {
		return nil, err
	}
	cfg := j.o.machineConfig(width)
	if j.o.PipeviewBench == j.c.Name {
		pv := pipeview.DefaultConfig()
		cfg.Pipeview = &pv
	}
	code := j.code(a, binary, j.o.RefInputs[inputIdx].Iters)
	mach := pipeline.NewFromCode(code, ia.refMem.Clone(), cfg)
	st, err := mach.Run()
	if err != nil {
		return nil, fmt.Errorf("%s/%s w%d: %w", j.c.Name, binary, width, err)
	}
	if ia.gold != nil && !mach.Memory().Equal(ia.gold) {
		return nil, fmt.Errorf("%s/%s w%d: architectural state diverged from golden model", j.c.Name, binary, width)
	}
	return st, nil
}

// buildUnit is the job's build unit. On a miss it builds the binaries
// (which the job's simulations then share) and returns their summary; on
// a hit nothing is built, and the binaries are built only if one of the
// job's simulations misses.
func (j *benchJob) buildUnit(jobIdx int) engine.Unit[*buildSummary] {
	return engine.Unit[*buildSummary]{
		Label: fmt.Sprintf("%d/%s/build", jobIdx, j.c.Name),
		Key:   j.buildKey(),
		Run: func(context.Context) (*buildSummary, error) {
			a, err := j.artifacts()
			if err != nil {
				return nil, err
			}
			return a.sum, nil
		},
	}
}

// simUnits enumerates the job's simulation units in deterministic order:
// input x width x j.binaries.
func (j *benchJob) simUnits(jobIdx int) []engine.Unit[*pipeline.Stats] {
	var us []engine.Unit[*pipeline.Stats]
	for ii, in := range j.o.RefInputs {
		for _, w := range j.o.Widths {
			for _, binary := range j.binaries {
				us = append(us, engine.Unit[*pipeline.Stats]{
					Label: fmt.Sprintf("%d/%s/seed=%d,iters=%d/w%d/%s",
						jobIdx, j.c.Name, in.Seed, in.Iters, w, binary),
					Key: j.simKey(in, w, binary),
					Run: func(context.Context) (*pipeline.Stats, error) {
						return j.simulate(ii, w, binary)
					},
				})
			}
		}
	}
	return us
}

// runBenchJobs executes a (possibly heterogeneous) set of benchmark jobs
// and aggregates per-job BenchResults in enumeration order: first every
// job's build unit as one engine job set, then every simulation as
// another. The execution policy (Jobs, Cache, EngineStats) comes from o;
// each job's own Options govern what it simulates.
func runBenchJobs(jobs []*benchJob, o Options) ([]*BenchResult, error) {
	cfg := engine.Config{Jobs: o.Jobs, Cache: o.Cache, Monitor: o.Monitor, Recorder: o.Recorder}
	builds := make([]engine.Unit[*buildSummary], len(jobs))
	var units []engine.Unit[*pipeline.Stats]
	first := make([]int, len(jobs)) // index of each job's first simulation unit
	for ji, j := range jobs {
		builds[ji] = j.buildUnit(ji)
		first[ji] = len(units)
		units = append(units, j.simUnits(ji)...)
	}
	sums, est, err := engine.Run(context.Background(), cfg, builds)
	o.EngineStats.add(est)
	if err != nil {
		return nil, err
	}
	results, est, err := engine.Run(context.Background(), cfg, units)
	o.EngineStats.add(est)
	if err != nil {
		return nil, err
	}
	if o.Monitor != nil {
		// Feed per-cause slot totals to /metrics here, after the engine
		// returns, so cache hits count the same as fresh simulations.
		for _, st := range results {
			if st != nil && st.Attr != nil {
				o.Monitor.ObserveAttr(st.Attr.Slots)
			}
			if st != nil && st.Bpred != nil {
				o.Monitor.ObserveBpred(st.Bpred)
			}
		}
	}

	out := make([]*BenchResult, len(jobs))
	for ji, j := range jobs {
		sum := sums[ji]
		res := &BenchResult{
			Config: j.c, Profile: sum.Profile, Report: sum.Report,
			StaticBase: sum.StaticBase, StaticExp: sum.StaticExp,
		}
		k := first[ji]
		for _, in := range j.o.RefInputs {
			ir2 := InputResult{Input: in}
			for _, w := range j.o.Widths {
				wr := WidthRun{Width: w}
				for _, binary := range j.binaries {
					if binary == "base" {
						wr.Base = results[k]
					} else {
						wr.Exp = results[k]
					}
					k++
				}
				ir2.Runs = append(ir2.Runs, wr)
			}
			res.Inputs = append(res.Inputs, ir2)
		}
		out[ji] = res
	}
	return out, nil
}

// EngineStats accumulates experiment-engine telemetry across every
// harness call that shares it (via Options.EngineStats). Safe for
// concurrent use; the zero value is ready.
type EngineStats struct {
	mu    sync.Mutex
	jobs  int
	wall  time.Duration
	units []trace.EngineUnit
	hits  int
	miss  int
}

func (s *EngineStats) add(est engine.Stats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if est.Jobs > s.jobs {
		s.jobs = est.Jobs
	}
	s.wall += est.Wall
	s.hits += est.CacheHits
	s.miss += est.CacheMisses
	for _, u := range est.Units {
		s.units = append(s.units, trace.EngineUnit{
			Label:    u.Label,
			WallMS:   float64(u.Wall) / float64(time.Millisecond),
			CacheHit: u.CacheHit,
		})
	}
}

// Report renders the accumulated telemetry in the shared schema.
func (s *EngineStats) Report() *trace.EngineReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &trace.EngineReport{
		Jobs:        s.jobs,
		Units:       len(s.units),
		CacheHits:   s.hits,
		CacheMisses: s.miss,
		WallMS:      float64(s.wall) / float64(time.Millisecond),
		UnitWall:    append([]trace.EngineUnit(nil), s.units...),
	}
}

// Summary returns a one-line human summary for CLI logs.
func (s *EngineStats) Summary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("%d units on %d workers in %.1fs (run cache: %d hits, %d misses)",
		len(s.units), s.jobs, s.wall.Seconds(), s.hits, s.miss)
}

// SuiteCache memoizes RunSuite results per suite name for one Options
// value — the in-process reuse layer the CLIs share (one `spec -all`
// renders several tables and figures from the same suites), while the
// on-disk run cache handles reuse across invocations.
type SuiteCache struct {
	o      Options
	mu     sync.Mutex
	suites map[string][]*BenchResult
}

// NewSuiteCache returns a suite memo over the given options.
func NewSuiteCache(o Options) *SuiteCache {
	return &SuiteCache{o: o, suites: map[string][]*BenchResult{}}
}

// Options returns the options the cache runs suites under.
func (sc *SuiteCache) Options() Options { return sc.o }

// Suite runs (or recalls) a whole suite.
func (sc *SuiteCache) Suite(name string) ([]*BenchResult, error) {
	sc.mu.Lock()
	rs, ok := sc.suites[name]
	sc.mu.Unlock()
	if ok {
		return rs, nil
	}
	rs, err := RunSuite(name, sc.o)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	sc.suites[name] = rs
	sc.mu.Unlock()
	return rs, nil
}
