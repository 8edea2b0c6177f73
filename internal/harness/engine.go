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
// lane-parallel stepping path — laned and scalar runs are proven
// byte-identical (the lanes differential), but entries cached before the
// lane core existed must never alias entries computed through it, so the
// whole namespace moves. v5: simulations dispatch through predecoded
// kernels by default and simKey gained the Dispatch field — kernels and
// switch are proven byte-identical (the dispatch differential), but
// pre-kernel entries must never alias post-kernel ones and the two modes
// must never alias each other. v6: simKeyMaterial gained the Probe field,
// so probed runs (whose Stats carry a predictor-observatory study) never
// alias v5 entries cached without one.
const harnessVersion = "harness/v6"

// benchJob is one (benchmark, options) experiment. The engine expands it
// into a build unit (profile, transform, schedule — shared products) plus
// one simulation unit per (input, width, binary).
type benchJob struct {
	c    workload.Config
	o    Options
	arts *jobArts
}

// jobArts holds the per-job shared build products. They are constructed
// at most once (sync.Once) by whichever unit needs them first; every
// product is read-only after construction, so simulation units on other
// workers may consume them concurrently. Each simulation still gets its
// own pipeline.Machine, memory clone, and patched image copy — the "one
// machine per goroutine" contract DESIGN.md documents.
type jobArts struct {
	once sync.Once
	err  error

	baseIm, expIm         *ir.Image
	prof                  *profile.Profile
	rep                   *core.Report
	staticBase, staticExp int

	inputs []*inputArts // parallel to o.RefInputs
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

func newBenchJob(c workload.Config, o Options) *benchJob {
	return &benchJob{c: c, o: o, arts: &jobArts{inputs: func() []*inputArts {
		ia := make([]*inputArts, len(o.RefInputs))
		for i := range ia {
			ia[i] = &inputArts{}
		}
		return ia
	}()}}
}

// artifacts builds (once) and returns the job's shared binaries.
func (j *benchJob) artifacts() (*jobArts, error) {
	a := j.arts
	a.once.Do(func() {
		base, exp, prof, rep, err := BuildBinaries(j.c, j.o)
		if err != nil {
			a.err = err
			return
		}
		a.baseIm, a.expIm = ir.MustLinearize(base), ir.MustLinearize(exp)
		a.prof, a.rep = prof, rep
		a.staticBase, a.staticExp = base.NumInstrs(), exp.NumInstrs()
	})
	return a, a.err
}

// input builds (once) and returns the shared per-input products.
func (j *benchJob) input(i int) (*inputArts, error) {
	ia := j.arts.inputs[i]
	ia.once.Do(func() {
		in := j.o.RefInputs[i]
		_, refMem := j.c.Generate(in)
		ia.refMem = refMem
		if j.o.Verify {
			goldProg, goldMem := j.c.Generate(in)
			if _, _, err := interp.Run(ir.MustLinearize(goldProg), goldMem, interp.Options{Dispatch: j.o.Dispatch}); err != nil {
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
// (TestRunCacheKeyCoversOptions) reconciles this struct against
// harness.Options and pipeline.Config field by field, so a new
// result-affecting option that is not threaded through here fails a test
// instead of silently aliasing cache entries.
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
	Dispatch     string
}

// simKey derives the content key of one simulation unit. An anonymous
// predictor (NewPredictor set without PredictorName) makes the unit
// uncacheable.
func (j *benchJob) simKey(in workload.Input, width int, binary string) string {
	if j.o.NewPredictor != nil && j.o.PredictorName == "" {
		return ""
	}
	pred := j.o.PredictorName
	if pred == "" {
		pred = "default"
	}
	return engine.Key(harnessVersion, simKeyMaterial{
		Config: j.c, Train: j.o.TrainInput, Input: in,
		Width: width, Binary: binary, Predictor: pred,
		Core: j.o.Core, Spec: j.o.Spec,
		DBBEntries: j.o.DBBEntries, ICacheBytes: j.o.ICacheBytes,
		SampleWindow: j.o.SampleWindow, Attr: j.o.Attr, Probe: j.o.Probe,
		Pipeview: j.o.PipeviewBench == j.c.Name, Dispatch: j.o.Dispatch.String(),
	})
}

// simImage resolves the patched program image and machine config of one
// (input, width, binary) simulation from the shared artifacts — the
// read-only half of a run, shared verbatim by every lane of a batch.
func (j *benchJob) simImage(a *jobArts, inputIdx, width int, binary string) (*ir.Image, pipeline.Config) {
	im := a.baseIm
	if binary == "exp" {
		im = a.expIm
	}
	cfg := j.o.machineConfig(width)
	if j.o.PipeviewBench == j.c.Name {
		pv := pipeview.DefaultConfig()
		cfg.Pipeview = &pv
	}
	return j.c.PatchIters(im, j.o.RefInputs[inputIdx].Iters), cfg
}

// checkRun applies simulate's post-run contract to one machine: wrap the
// timing error with the unit's identity, then verify architectural memory
// against the golden model.
func (j *benchJob) checkRun(mach *pipeline.Machine, gold *mem.Memory, width int, binary string, err error) error {
	if err != nil {
		return fmt.Errorf("%s/%s w%d: %w", j.c.Name, binary, width, err)
	}
	if gold != nil && !mach.Memory().Equal(gold) {
		return fmt.Errorf("%s/%s w%d: architectural state diverged from golden model", j.c.Name, binary, width)
	}
	return nil
}

// simulate executes one (input, width, binary) timing run against the
// shared artifacts and verifies it against the golden model.
func (j *benchJob) simulate(inputIdx, width int, binary string) (*pipeline.Stats, error) {
	a, err := j.artifacts()
	if err != nil {
		return nil, err
	}
	ia, err := j.input(inputIdx)
	if err != nil {
		return nil, err
	}
	im, cfg := j.simImage(a, inputIdx, width, binary)
	mach := pipeline.New(im, ia.refMem.Clone(), cfg)
	st, err := mach.Run()
	if err := j.checkRun(mach, ia.gold, width, binary, err); err != nil {
		return nil, err
	}
	return st, nil
}

// simRef locates one simulation unit for the batch scheduler: the job it
// belongs to plus the (input, width, binary) coordinates its scalar
// closure would use. runBenchJobs builds one per simulation unit, in the
// same order the units are enumerated.
type simRef struct {
	j        *benchJob
	inputIdx int
	width    int
	binary   string
}

// simulateBatch runs a group of same-BatchKey simulations as one
// pipeline.LaneGroup. All refs share (job, width, binary, iters) — the
// batch key pins them — so the patched image and machine config are
// resolved once; each lane gets its own REF memory clone and its own
// golden check. Per-lane results and errors land in the slot of the ref
// that produced them, so a failing lane does not poison its siblings.
func simulateBatch(refs []simRef) ([]*pipeline.Stats, []error) {
	j := refs[0].j
	stats := make([]*pipeline.Stats, len(refs))
	errs := make([]error, len(refs))
	fill := func(err error) ([]*pipeline.Stats, []error) {
		for i := range errs {
			errs[i] = err
		}
		return stats, errs
	}
	a, err := j.artifacts()
	if err != nil {
		return fill(err)
	}
	im, cfg := j.simImage(a, refs[0].inputIdx, refs[0].width, refs[0].binary)

	// Resolve each lane's input artifacts; a lane whose input fails drops
	// out of the group before the machines are built.
	ok := make([]int, 0, len(refs))
	mems := make([]*mem.Memory, 0, len(refs))
	golds := make([]*mem.Memory, 0, len(refs))
	for i, r := range refs {
		ia, err := j.input(r.inputIdx)
		if err != nil {
			errs[i] = err
			continue
		}
		ok = append(ok, i)
		mems = append(mems, ia.refMem.Clone())
		golds = append(golds, ia.gold)
	}
	if len(ok) == 0 {
		return stats, errs
	}

	g := pipeline.NewLaneGroup(im, mems, cfg)
	laneStats, laneErrs := g.Run()
	for li, i := range ok {
		r := refs[i]
		if err := j.checkRun(g.Lane(li), golds[li], r.width, r.binary, laneErrs[li]); err != nil {
			errs[i] = err
			continue
		}
		stats[i] = laneStats[li]
	}
	return stats, errs
}

// units enumerates the job's engine units in deterministic order: the
// build unit first, then (input x width x {base, exp}) simulations. The
// build unit is uncacheable on purpose — the aggregated BenchResult needs
// the profile and transform report even when every simulation below is a
// cache hit. Each simulation also gets a simRef (parallel slice, same
// order) and a BatchKey pinning everything the lanes of one group must
// share — job, width, binary, and iteration count (PatchIters bakes
// Iters into the image) — so only simulations over the exact same
// patched image and config ever coalesce; seeds may differ per lane
// because they live in the per-lane memory image.
func (j *benchJob) units(jobIdx int) ([]engine.Unit[*pipeline.Stats], []simRef) {
	us := []engine.Unit[*pipeline.Stats]{{
		Label: fmt.Sprintf("%d/%s/build", jobIdx, j.c.Name),
		Run: func(context.Context) (*pipeline.Stats, error) {
			_, err := j.artifacts()
			return nil, err
		},
	}}
	refs := []simRef{{}} // build unit placeholder; never batched
	for ii, in := range j.o.RefInputs {
		for _, w := range j.o.Widths {
			for _, binary := range []string{"base", "exp"} {
				us = append(us, engine.Unit[*pipeline.Stats]{
					Label: fmt.Sprintf("%d/%s/seed=%d,iters=%d/w%d/%s",
						jobIdx, j.c.Name, in.Seed, in.Iters, w, binary),
					Key:      j.simKey(in, w, binary),
					BatchKey: fmt.Sprintf("%d/w%d/%s/iters=%d", jobIdx, w, binary, in.Iters),
					Run: func(context.Context) (*pipeline.Stats, error) {
						return j.simulate(ii, w, binary)
					},
				})
				refs = append(refs, simRef{j: j, inputIdx: ii, width: w, binary: binary})
			}
		}
	}
	return us, refs
}

// runBenchJobs executes a (possibly heterogeneous) set of benchmark jobs
// as one engine job set and aggregates per-job BenchResults in
// enumeration order. The execution policy (Jobs, Cache, EngineStats)
// comes from o; each job's own Options govern what it simulates.
func runBenchJobs(jobs []*benchJob, o Options) ([]*BenchResult, error) {
	var units []engine.Unit[*pipeline.Stats]
	var refs []simRef
	first := make([]int, len(jobs)) // index of each job's first simulation unit
	for ji, j := range jobs {
		us, rs := j.units(ji)
		first[ji] = len(units) + 1 // skip the build unit
		units = append(units, us...)
		refs = append(refs, rs...)
	}
	batchRun := func(_ context.Context, idxs []int) ([]*pipeline.Stats, []error) {
		group := make([]simRef, len(idxs))
		for k, i := range idxs {
			group[k] = refs[i]
		}
		return simulateBatch(group)
	}
	results, est, err := engine.RunBatched(context.Background(),
		engine.Config{Jobs: o.Jobs, Cache: o.Cache, Monitor: o.Monitor, Lanes: o.laneCount(),
			Recorder: o.Recorder,
			Labels:   []string{"dispatch", o.Dispatch.String(), "lanes", fmt.Sprint(o.laneCount())}},
		units, batchRun)
	if o.EngineStats != nil {
		o.EngineStats.add(est)
	}
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
		a, err := j.artifacts()
		if err != nil {
			return nil, err
		}
		res := &BenchResult{
			Config: j.c, Profile: a.prof, Report: a.rep,
			StaticBase: a.staticBase, StaticExp: a.staticExp,
		}
		k := first[ji]
		for _, in := range j.o.RefInputs {
			ir2 := InputResult{Input: in}
			for _, w := range j.o.Widths {
				ir2.Runs = append(ir2.Runs, WidthRun{Width: w, Base: results[k], Exp: results[k+1]})
				k += 2
			}
			res.Inputs = append(res.Inputs, ir2)
		}
		out[ji] = res
	}
	return out, nil
}

// laneCount resolves Options.Lanes to an effective group width: 0 means
// automatic (pipeline.DefaultLanes); anything else passes through, with
// 1 (or a negative value) selecting the scalar path.
func (o *Options) laneCount() int {
	if o.Lanes == 0 {
		return pipeline.DefaultLanes
	}
	return o.Lanes
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
