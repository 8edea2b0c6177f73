package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/pipeline"
)

// traceDir receives the traced run's spans and layer table.
var traceDir = filepath.Join(".bench_build", "trace")

// replayPlan replays every call of the plan and returns the digest
// records of the replayed statistics, in the harness run's format.
func replayPlan(ctx context.Context, r *replay, calls []call, o harness.Options) runResult {
	var rr runResult
	for _, c := range calls {
		n := c.units(o)
		rr.attempted += n
		specs := c.jobs(o)
		sts, err := r.runJobs(ctx, specs, o.Jobs)
		if err != nil {
			rr.failed += n
			rr.errs = append(rr.errs, fmt.Sprintf("replay %s: %v", c.name(), err))
			continue
		}
		// Walk the units in enumeration order: per job, the build unit,
		// then (input x width x {base, exp}).
		k := 0
		first := make([]*pipeline.Stats, len(specs)) // each job's first simulation
		for ji, s := range specs {
			k++
			for _, in := range s.o.RefInputs {
				for _, wd := range s.o.Widths {
					for _, bin := range []string{"base", "exp"} {
						if first[ji] == nil {
							first[ji] = sts[k]
						}
						if c.kind != "icache" {
							rr.records = append(rr.records, statsRecord(simLabel(c, s.c.Name, in, wd, bin), sts[k]))
							rr.committed += sts[k].Committed
						}
						k++
					}
				}
			}
		}
		if c.kind == "icache" {
			// harness.RunICacheStudy's row arithmetic over the first
			// input's width-4 baselines of the 32KB and 24KB jobs.
			for ci := 0; ci < len(specs); ci += 2 {
				big, small := first[ci], first[ci+1]
				slow := (float64(small.Cycles)/float64(big.Cycles) - 1) * 100
				frac := 0.0
				if big.ICacheMisses > 0 {
					frac = float64(big.ICacheMissUnderMispred) / float64(big.ICacheMisses)
				}
				rr.records = append(rr.records, icacheRecord(specs[ci].c.Name, slow, frac))
			}
		}
	}
	return rr
}

// runtimeSample reads the process' cumulative allocation and GC CPU.
func runtimeSample() (allocBytes, gcCPU float64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64()
}

// traceChild runs the workload untraced through the harness, then replays
// it with spans, checks the replay against the harness run (and the
// pinned digest at the default seed), checks span conservation, and
// reports the per-layer metrics. The warm workload first primes both the
// harness' and the replay's run caches with a cold pass each.
func traceChild(w workloadSpec, seed int64, dir string) (childResult, error) {
	ctx := context.Background()
	o := options(w, seed)
	hc, err := engine.Open(filepath.Join(dir, "harness"))
	if err != nil {
		return childResult{}, err
	}
	rc, err := engine.Open(filepath.Join(dir, "replay"))
	if err != nil {
		return childResult{}, err
	}
	o.Cache = hc
	var res childResult
	fail := func(n int, errs []string) {
		res.Failed += n
		res.Errors = append(res.Errors, errs...)
	}
	if w.warm {
		p := runPlan(plan(w), o)
		fail(p.failed, p.errs)
		q := replayPlan(ctx, newReplay(rc), plan(w), o)
		fail(q.failed, q.errs)
	}

	runtime.GC()
	t0 := time.Now()
	h := runPlan(plan(w), o)
	untraced := time.Since(t0)
	fail(h.failed, h.errs)
	res.Attempted = h.attempted
	bad, err := checkDigest(w, seed, h.records, &res.Errors)
	if err != nil {
		return childResult{}, err
	}
	res.Failed += bad

	runtime.GC()
	a0, g0 := runtimeSample()
	r := newReplay(rc)
	t1 := time.Now()
	rp := replayPlan(ctx, r, plan(w), o)
	traced := time.Since(t1)
	a1, g1 := runtimeSample()
	fail(rp.failed, rp.errs)
	if rp.failed == 0 && h.failed == 0 {
		// Replay fidelity: the layer numbers must describe the work the
		// harness did, unit for unit.
		mism := compareDigest(h.records, rp.records)
		for _, m := range mism {
			res.Errors = append(res.Errors, "replay fidelity: "+m)
		}
		res.Failed += len(mism)
	}

	spans := flatten(r.tasks)
	self := selfTimes(spans)
	selfSum, idle, capacity, cerr := conservation(spans, self, r.runs)
	if cerr != nil {
		res.Errors = append(res.Errors, "span conservation: "+cerr.Error())
		res.Failed++
	}
	res.Failed = min(res.Failed, res.Attempted)
	totals := layerTotals(spans, self)

	res.Metrics = layerMetrics(r, spans, totals, traceFigures{
		allocBytes: a1 - a0, gcCPU: g1 - g0, idle: idle,
		untraced: untraced, traced: traced,
		conservationErr: float64(selfSum+idle-capacity) / float64(capacity),
	})
	res.WallS = traced.Seconds()

	if err := writeTrace(w, seed, spans, totals, idle, capacity, traced, untraced); err != nil {
		return childResult{}, err
	}
	return res, nil
}

// traceFigures are the traced run's process-level measurements.
type traceFigures struct {
	allocBytes, gcCPU float64 // over the traced replay
	idle              int64   // worker ns no task occupied
	untraced, traced  time.Duration
	conservationErr   float64 // (Σ self + idle − workers × wall) / (workers × wall)
}

// layerMetrics derives the per-layer figures from the spans, the
// counters and the process-level measurements.
func layerMetrics(r *replay, spans []span, totals map[string]int64, f traceFigures) metrics {
	m := metrics{}
	s := func(name string) float64 { return sec(totals[name]) }
	n := &r.n
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m.set("sched.program_s", s("sched.program"), "s")
	m.set("sched.instrs", float64(n.schedInstrs.Load()), "count")
	m.set("sched.us_per_instr", ratio(s("sched.program")*1e6, float64(n.schedInstrs.Load())), "us")
	m.set("profile.collect_s", s("profile.collect"), "s")
	m.set("core.speculate_s", s("core.speculate"), "s")
	m.set("core.transform_s", s("core.transform"), "s")
	m.set("core.converted", float64(n.converted.Load()), "count")
	m.set("workload.generate_s", s("workload.generate"), "s")
	m.set("ir.linearize_s", s("ir.linearize"), "s")
	m.set("ir.patch_iters_s", s("ir.patch_iters"), "s")

	m.set("pipeline.run_s", s("pipeline.run"), "s")
	m.set("pipeline.sim_cycles", float64(n.simCycles.Load()), "count")
	m.set("pipeline.host_ns_per_sim_cycle", ratio(s("pipeline.run")*1e9, float64(n.simCycles.Load())), "ns")
	m.set("pipeline.committed", float64(n.committed.Load()), "count")
	m.set("bpred.mispredicts", float64(n.mispredicts.Load()), "count")
	m.set("cache.icache_misses", float64(n.icacheMisses.Load()), "count")
	m.set("pipeline.new_s", s("pipeline.new"), "s")
	m.set("pipeline.machines", float64(n.machines.Load()), "count")

	m.set("interp.golden_s", s("interp.golden"), "s")
	m.set("mem.clone_s", s("mem.clone"), "s")
	m.set("mem.equal_s", s("mem.equal"), "s")

	// Engine: one sample per task — a lane group counts once, however
	// many units it carries.
	var busy int64
	var durs []float64
	unitStart := map[int]int64{}
	for _, sp := range spans {
		if sp.Parent < 0 {
			busy += sp.End - sp.Start
			durs = append(durs, float64(sp.End-sp.Start)/1e6)
		}
		if t, ok := unitStart[sp.Unit]; !ok || sp.Start < t {
			unitStart[sp.Unit] = sp.Start
		}
	}
	var capacity, queue int64
	for _, run := range r.runs {
		capacity += int64(run.workers) * int64(run.wall)
		for u := run.unit0; u < run.unit1; u++ {
			if t, ok := unitStart[u]; ok {
				queue += t - run.from
			}
		}
	}
	m.set("engine.busy_s", sec(busy), "s")
	m.set("engine.busy_ratio", ratio(float64(busy), float64(capacity)), "ratio")
	m.set("engine.queue_wait_s", sec(queue), "s")
	m.set("engine.wait_s", s("engine.wait"), "s")
	m.set("engine.units", float64(r.units), "count")
	m.set("engine.lane_group_width_mean", ratio(float64(n.laneMembers.Load()), float64(n.laneGroups.Load())), "count")
	_, tv := tail(durs)
	m.set("engine.unit_p50_ms", median(durs), "ms")
	m.set("engine.unit_tail_ms", tv, "ms")
	m.set("engine.cache.get_s", s("engine.cache.get"), "s")
	m.set("engine.cache.put_s", s("engine.cache.put"), "s")
	m.set("engine.cache.hit_ratio", ratio(float64(n.cacheHits.Load()), float64(n.cacheHits.Load()+n.cacheMisses.Load())), "ratio")
	m.set("engine.cache.bytes", float64(n.cacheBytes.Load()), "bytes")

	m.set("runtime.alloc_mb", f.allocBytes/(1<<20), "MB")
	m.set("runtime.gc_cpu_s", f.gcCPU, "s")
	m.set("engine.idle_s", sec(f.idle), "s")
	m.set("trace.untraced_wall_s", f.untraced.Seconds(), "s")
	m.set("trace.replay_wall_s", f.traced.Seconds(), "s")
	m.set("trace.overhead_s", (f.traced - f.untraced).Seconds(), "s")
	m.set("trace.conservation_err", f.conservationErr, "ratio")
	return m
}

// writeTrace writes the spans (JSON lines) and the "where the time goes"
// table under traceDir, and prints the table to standard error.
func writeTrace(w workloadSpec, seed int64, spans []span, totals map[string]int64, idle, capacity int64, traced, untraced time.Duration) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var b strings.Builder
	writeLayerTable(&b, fmt.Sprintf("### %s (seed %d): traced replay %.2f s, untraced harness %.2f s, tracing overhead %+.2f s",
		w.name, seed, traced.Seconds(), untraced.Seconds(), (traced-untraced).Seconds()), totals, idle, capacity)
	fmt.Fprint(os.Stderr, b.String())
	return os.WriteFile(base+".layers.md", []byte(b.String()), 0o644)
}
