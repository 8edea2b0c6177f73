package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vanguard/internal/bpred"
	"vanguard/internal/core"
	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
	"vanguard/internal/workload"
)

// The traced replay re-enacts the harness' engine job sets from the
// benchmark's own code, calling each layer itself so every call gets a
// span. It mirrors internal/harness/engine.go unit for unit: the same
// enumeration, labels, batch keys and lane groups, the same shared build
// and input products behind sync.Once, and the same run-cache discipline
// — probe, compute on a miss, then store — done inside the unit so the
// cache calls are spanned too. Its per-unit statistics must equal the
// untraced harness run's (replay fidelity), which is what keeps this
// mirror honest when the harness changes.

// replayVersion namespaces the replay's run-cache keys; the replay keeps
// its own cache so it never reads or writes the harness' entries.
const replayVersion = "perfbench-replay/v1"

// counters are work counts taken where the work happens.
type counters struct {
	schedInstrs  atomic.Int64 // instructions handed to sched.Program
	converted    atomic.Int64 // branches core.Transform decomposed
	machines     atomic.Int64 // pipeline machines built
	laneGroups   atomic.Int64 // lane groups simulated
	laneMembers  atomic.Int64 // machines simulated inside lane groups
	simCycles    atomic.Int64 // simulated cycles of computed simulations
	committed    atomic.Int64
	mispredicts  atomic.Int64 // BR direction + RESOLVE mispredictions
	icacheMisses atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	cacheBytes   atomic.Int64 // entry bytes read plus written
}

type replay struct {
	origin time.Time
	cache  *engine.Cache
	n      counters
	runs   []engineRun
	units  int // units enumerated by earlier job sets

	mu    sync.Mutex
	tasks []*taskTrace
}

func newReplay(cache *engine.Cache) *replay {
	return &replay{origin: time.Now(), cache: cache}
}

func (r *replay) now() int64 { return int64(time.Since(r.origin)) }

// store keeps a finished task's spans; workers finish concurrently.
func (r *replay) store(t *taskTrace) {
	r.mu.Lock()
	r.tasks = append(r.tasks, t)
	r.mu.Unlock()
}

// rjob is one replayed (benchmark, options) experiment.
type rjob struct {
	r      *replay
	c      workload.Config
	o      harness.Options
	once   sync.Once
	err    error
	baseIm *ir.Image
	expIm  *ir.Image
	inputs []*rinput
}

type rinput struct {
	once   sync.Once
	err    error
	refMem *mem.Memory
	gold   *mem.Memory
}

// spanned runs f inside a span named name.
func spanned(t *taskTrace, name string, f func()) {
	i := t.begin(name)
	f()
	t.end(i)
}

// artifacts builds (once) the job's binaries — harness.BuildBinaries plus
// the linearization benchJob.artifacts does — spanning every layer call.
// A unit that finds another unit building waits, and the wait is spanned;
// the unit that builds closes its wait span at once, so its build spans
// sit directly under its task span.
func (j *rjob) artifacts(t *taskTrace) error {
	w := t.begin("engine.wait")
	waited := true
	j.once.Do(func() {
		waited = false
		t.end(w)
		j.err = j.build(t)
	})
	if waited {
		t.end(w)
	}
	return j.err
}

func (j *rjob) build(t *taskTrace) error {
	var trainProg *ir.Program
	var trainMem *mem.Memory
	spanned(t, "workload.generate", func() { trainProg, trainMem = j.c.Generate(j.o.TrainInput) })
	var im *ir.Image
	var err error
	spanned(t, "ir.linearize", func() { im, err = ir.Linearize(trainProg) })
	if err != nil {
		return fmt.Errorf("%s: linearize: %w", j.c.Name, err)
	}
	var prof *profile.Profile
	spanned(t, "profile.collect", func() { prof, err = profile.Collect(im, trainMem, bpred.NewDefault(), 200_000_000) })
	if err != nil {
		return fmt.Errorf("%s: profile: %w", j.c.Name, err)
	}
	var base, exp *ir.Program
	spanned(t, "ir.clone", func() { base = trainProg.Clone() })
	spanned(t, "core.speculate", func() { _, err = core.SpeculateBiasedBranches(base, prof, j.o.Spec) })
	if err != nil {
		return fmt.Errorf("%s: baseline speculation: %w", j.c.Name, err)
	}
	spanned(t, "ir.clone", func() { exp = base.Clone() })
	var rep *core.Report
	spanned(t, "core.transform", func() { rep, err = core.Transform(exp, prof, j.o.Core) })
	if err != nil {
		return fmt.Errorf("%s: transform: %w", j.c.Name, err)
	}
	j.r.n.converted.Add(int64(len(rep.Converted)))
	model := sched.DefaultModel(4)
	for _, p := range []*ir.Program{base, exp} {
		j.r.n.schedInstrs.Add(int64(p.NumInstrs()))
		spanned(t, "sched.program", func() { sched.Program(p, model) })
	}
	spanned(t, "ir.linearize", func() {
		if j.baseIm, err = ir.Linearize(base); err == nil {
			j.expIm, err = ir.Linearize(exp)
		}
	})
	return err
}

// input builds (once) the REF memory image and, under Verify, the golden
// architectural memory of one input.
func (j *rjob) input(t *taskTrace, i int) (*rinput, error) {
	ia := j.inputs[i]
	w := t.begin("engine.wait")
	waited := true
	ia.once.Do(func() {
		waited = false
		t.end(w)
		in := j.o.RefInputs[i]
		spanned(t, "workload.generate", func() { _, ia.refMem = j.c.Generate(in) })
		if !j.o.Verify {
			return
		}
		var goldProg *ir.Program
		var goldMem *mem.Memory
		spanned(t, "workload.generate", func() { goldProg, goldMem = j.c.Generate(in) })
		var im *ir.Image
		spanned(t, "ir.linearize", func() { im, ia.err = ir.Linearize(goldProg) })
		if ia.err != nil {
			return
		}
		spanned(t, "interp.golden", func() { _, _, ia.err = interp.Run(im, goldMem, interp.Options{Dispatch: j.o.Dispatch}) })
		if ia.err != nil {
			ia.err = fmt.Errorf("%s: golden run: %w", j.c.Name, ia.err)
			return
		}
		ia.gold = goldMem
	})
	if waited {
		t.end(w)
	}
	return ia, ia.err
}

// machineConfig mirrors harness Options.machineConfig for the options the
// workloads use: the default predictor, and the Section 6.1 L1-I
// capacity cut made by dropping ways at a constant set count.
func (j *rjob) machineConfig(width int) pipeline.Config {
	cfg := pipeline.DefaultConfig(width)
	cfg.NewPredictor = func() bpred.DirPredictor { return bpred.NewDefault() }
	cfg.Dispatch = j.o.Dispatch
	if j.o.ICacheBytes > 0 {
		def := cfg.Hier.L1I
		sets := def.SizeBytes / def.LineBytes / def.Ways
		cfg.Hier.L1I.SizeBytes = j.o.ICacheBytes
		cfg.Hier.L1I.Ways = j.o.ICacheBytes / def.LineBytes / sets
	}
	return cfg
}

// simImage patches the REF iteration count into the binary.
func (j *rjob) simImage(t *taskTrace, inputIdx int, binary string) *ir.Image {
	im := j.baseIm
	if binary == "exp" {
		im = j.expIm
	}
	var out *ir.Image
	spanned(t, "ir.patch_iters", func() { out = j.c.PatchIters(im, j.o.RefInputs[inputIdx].Iters) })
	return out
}

// check verifies one machine's architectural memory against the golden
// model, as the harness' checkRun does.
func (j *rjob) check(t *taskTrace, unit int, m *pipeline.Machine, gold *mem.Memory, width int, binary string, err error) error {
	if err != nil {
		return fmt.Errorf("%s/%s w%d: %w", j.c.Name, binary, width, err)
	}
	if gold == nil {
		return nil
	}
	i := t.beginUnit("mem.equal", unit)
	eq := m.Memory().Equal(gold)
	t.end(i)
	if !eq {
		return fmt.Errorf("%s/%s w%d: architectural state diverged from golden model", j.c.Name, binary, width)
	}
	return nil
}

func (r *replay) countSim(st *pipeline.Stats) {
	r.n.simCycles.Add(st.Cycles)
	r.n.committed.Add(st.Committed)
	r.n.mispredicts.Add(st.BrMispredicts + st.ResMispredicts)
	r.n.icacheMisses.Add(st.ICacheMisses)
}

// simulate is one scalar simulation unit (harness benchJob.simulate).
func (j *rjob) simulate(t *taskTrace, inputIdx, width int, binary string) (*pipeline.Stats, error) {
	if err := j.artifacts(t); err != nil {
		return nil, err
	}
	ia, err := j.input(t, inputIdx)
	if err != nil {
		return nil, err
	}
	im := j.simImage(t, inputIdx, binary)
	cfg := j.machineConfig(width)
	var m0 *mem.Memory
	spanned(t, "mem.clone", func() { m0 = ia.refMem.Clone() })
	var mach *pipeline.Machine
	spanned(t, "pipeline.new", func() { mach = pipeline.New(im, m0, cfg) })
	j.r.n.machines.Add(1)
	var st *pipeline.Stats
	spanned(t, "pipeline.run", func() { st, err = mach.Run() })
	if err := j.check(t, t.unit, mach, ia.gold, width, binary, err); err != nil {
		return nil, err
	}
	j.r.countSim(st)
	return st, nil
}

// simRef locates one simulation unit of a lane group.
type simRef struct {
	j        *rjob
	unit     int // global unit id
	key      string
	inputIdx int
	width    int
	binary   string
}

// simulateGroup runs simulations sharing (job, width, binary, iters) as
// one lane group (harness simulateBatch). The group's build, run and
// patch spans are charged once, to the group; clones and golden checks
// to each member.
func simulateGroup(t *taskTrace, refs []simRef) ([]*pipeline.Stats, []error) {
	j := refs[0].j
	stats := make([]*pipeline.Stats, len(refs))
	errs := make([]error, len(refs))
	if err := j.artifacts(t); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return stats, errs
	}
	im := j.simImage(t, refs[0].inputIdx, refs[0].binary)
	cfg := j.machineConfig(refs[0].width)
	var ok []int
	var mems, golds []*mem.Memory
	for i, ref := range refs {
		ia, err := j.input(t, ref.inputIdx)
		if err != nil {
			errs[i] = err
			continue
		}
		ok = append(ok, i)
		c := t.beginUnit("mem.clone", ref.unit)
		mems = append(mems, ia.refMem.Clone())
		t.end(c)
		golds = append(golds, ia.gold)
	}
	if len(ok) == 0 {
		return stats, errs
	}
	var g *pipeline.LaneGroup
	spanned(t, "pipeline.new", func() { g = pipeline.NewLaneGroup(im, mems, cfg) })
	j.r.n.machines.Add(int64(len(mems)))
	j.r.n.laneGroups.Add(1)
	j.r.n.laneMembers.Add(int64(len(mems)))
	var laneStats []*pipeline.Stats
	var laneErrs []error
	spanned(t, "pipeline.run", func() { laneStats, laneErrs = g.Run() })
	for li, i := range ok {
		ref := refs[i]
		if err := j.check(t, ref.unit, g.Lane(li), golds[li], ref.width, ref.binary, laneErrs[li]); err != nil {
			errs[i] = err
			continue
		}
		stats[i] = laneStats[li]
		j.r.countSim(laneStats[li])
	}
	return stats, errs
}

// cacheKey is the replay's content key for one simulation: everything
// that determines its statistics for the workloads' options.
func cacheKey(j *rjob, in workload.Input, width int, binary string) string {
	return engine.Key(replayVersion, j.c, j.o.TrainInput, in, width, binary, j.o.Core, j.o.Spec, j.o.ICacheBytes)
}

// get probes the run cache for a unit, as the engine does before it
// computes: read the entry and decode it; a corrupt entry is a miss.
func (r *replay) get(t *taskTrace, unit int, key string) (*pipeline.Stats, bool) {
	i := t.beginUnit("engine.cache.get", unit)
	defer t.end(i)
	data, ok := r.cache.Get(key)
	if ok {
		var st *pipeline.Stats
		if json.Unmarshal(data, &st) == nil {
			r.n.cacheHits.Add(1)
			r.n.cacheBytes.Add(int64(len(data)))
			return st, true
		}
	}
	r.n.cacheMisses.Add(1)
	return nil, false
}

// put stores a computed unit's result, as the engine does after it
// computes.
func (r *replay) put(t *taskTrace, unit int, key string, st *pipeline.Stats) {
	i := t.beginUnit("engine.cache.put", unit)
	defer t.end(i)
	if data, err := json.Marshal(st); err == nil {
		r.cache.Put(key, data)
		r.n.cacheBytes.Add(int64(len(data)))
	}
}

// runJobs replays one harness job set (harness runBenchJobs) through the
// engine and returns the statistics of every unit in enumeration order.
func (r *replay) runJobs(ctx context.Context, specs []jobSpec, jobsN int) ([]*pipeline.Stats, error) {
	var units []engine.Unit[*pipeline.Stats]
	var refs []simRef
	base := r.units
	for ji, s := range specs {
		j := &rjob{r: r, c: s.c, o: s.o, inputs: make([]*rinput, len(s.o.RefInputs))}
		for i := range j.inputs {
			j.inputs[i] = &rinput{}
		}
		bu := base + len(units)
		units = append(units, engine.Unit[*pipeline.Stats]{
			Label: fmt.Sprintf("%d/%s/build", ji, j.c.Name),
			Run: func(context.Context) (*pipeline.Stats, error) {
				t := newTaskTrace(r.origin, bu, "unit")
				defer r.store(t)
				defer t.close()
				return nil, j.artifacts(t)
			},
		})
		refs = append(refs, simRef{})
		for ii, in := range j.o.RefInputs {
			for _, w := range j.o.Widths {
				for _, binary := range []string{"base", "exp"} {
					ref := simRef{j: j, unit: base + len(units), key: cacheKey(j, in, w, binary), inputIdx: ii, width: w, binary: binary}
					units = append(units, engine.Unit[*pipeline.Stats]{
						Label:    fmt.Sprintf("%d/%s/seed=%d,iters=%d/w%d/%s", ji, j.c.Name, in.Seed, in.Iters, w, binary),
						BatchKey: fmt.Sprintf("%d/w%d/%s/iters=%d", ji, w, binary, in.Iters),
						Run: func(context.Context) (*pipeline.Stats, error) {
							t := newTaskTrace(r.origin, ref.unit, "unit")
							defer r.store(t)
							defer t.close()
							if st, ok := r.get(t, ref.unit, ref.key); ok {
								return st, nil
							}
							st, err := ref.j.simulate(t, ref.inputIdx, ref.width, ref.binary)
							if err != nil {
								return nil, err
							}
							r.put(t, ref.unit, ref.key, st)
							return st, nil
						},
					})
					refs = append(refs, ref)
				}
			}
		}
	}
	batchRun := func(_ context.Context, idxs []int) ([]*pipeline.Stats, []error) {
		t := newTaskTrace(r.origin, refs[idxs[0]].unit, "group")
		defer r.store(t)
		defer t.close()
		out := make([]*pipeline.Stats, len(idxs))
		errs := make([]error, len(idxs))
		var need []simRef
		var needAt []int
		for k, i := range idxs {
			if st, ok := r.get(t, refs[i].unit, refs[i].key); ok {
				out[k] = st
				continue
			}
			need = append(need, refs[i])
			needAt = append(needAt, k)
		}
		if len(need) == 0 {
			return out, errs
		}
		sts, es := simulateGroup(t, need)
		for n, k := range needAt {
			out[k], errs[k] = sts[n], es[n]
			if es[n] == nil {
				r.put(t, need[n].unit, need[n].key, sts[n])
			}
		}
		return out, errs
	}
	from := r.now()
	res, st, err := engine.RunBatched(ctx, engine.Config{Jobs: jobsN, Lanes: pipeline.DefaultLanes}, units, batchRun)
	r.runs = append(r.runs, engineRun{from: from, to: r.now(), unit0: base, unit1: base + len(units), workers: st.Jobs, wall: st.Wall})
	r.units += len(units)
	return res, err
}
