// Command vgrun assembles a vanguard assembly file and runs it — on the
// golden-model interpreter, on the Table 1 cycle-level machine, or both —
// optionally applying the Decomposed Branch Transformation first.
//
//	vgrun prog.s                      # interpret + simulate, print stats
//	vgrun -width 8 prog.s             # 8-wide machine
//	vgrun -transform prog.s           # profile, decompose, then simulate
//	vgrun -dump -transform prog.s     # print the transformed assembly
//	vgrun -json out.json prog.s       # machine-readable telemetry report
//	vgrun -chrome-trace t.json prog.s # timeline for chrome://tracing / Perfetto
//
// The timing run executes as an experiment-engine unit, so repeated
// invocations on an unchanged program are served from the content-keyed
// run cache (-cache-dir, -no-cache); event tracing flags force a live
// run. If the timing run halts on a deferred architectural fault, vgrun
// exits non-zero after dumping the last pipeline lifecycle events leading
// up to the fault (an always-on bounded ring buffer records them).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"vanguard/internal/asm"
	"vanguard/internal/core"
	"vanguard/internal/engine"
	"vanguard/internal/exec"
	"vanguard/internal/harness"
	"vanguard/internal/interp"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/pipeview"
	"vanguard/internal/profile"
	"vanguard/internal/sample"
	"vanguard/internal/sched"
	"vanguard/internal/textplot"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vgrun: ")
	var (
		width     = flag.Int("width", 4, "issue width")
		transform = flag.Bool("transform", false, "apply the decomposed branch transformation (profile-guided)")
		dump      = flag.Bool("dump", false, "print the (possibly transformed) assembly and exit")
		maxInstrs = flag.Int64("max-instrs", 50_000_000, "functional instruction cap")
		doTrace   = flag.Bool("trace", false, "print issue/mispredict events from the timing run (historical line format)")
		traceAll  = flag.Bool("trace-all", false, "like -trace, but print every lifecycle event (fetch, commit, squash, DBB push/pop, cache misses, faults)")
		jsonOut   = flag.String("json", "", "write a machine-readable telemetry report (schema "+trace.Schema+"; "+trace.SchemaV2+" when sampling is on, "+trace.SchemaV3+" with -attr, "+trace.SchemaV4+" with -pipeview, "+trace.SchemaV5+" with -sweep-trace, "+trace.SchemaV6+" with -bpred-report) to this file")
		chromeOut = flag.String("chrome-trace", "", "write a Chrome trace_event timeline (open in chrome://tracing or ui.perfetto.dev) to this file")
		noHists   = flag.Bool("no-hists", false, "suppress the ASCII histograms in the text report")
		sampleWin = flag.Int64("sample-window", 0, fmt.Sprintf("record a counter time series every N cycles (0 disables; the conventional window is %d)", sample.DefaultWindow))
		attrOn    = flag.Bool("attr", false, "charge every issue slot to a cause: print the CPI stack and offender tables, add an attribution section to -json reports")
		pviewOn   = flag.Bool("pipeview", false, "record per-instruction pipeline lifetimes: print an ASCII waterfall and squash genealogy, add a pipeview section to -json reports (schema "+trace.SchemaV4+")")
		konataOut = flag.String("konata", "", "write the captured lifetimes in Konata/O3PipeView format (open in the Konata viewer) to this file; implies -pipeview")
		pvAround  = flag.Int("pipeview-around", 0, "capture around the Nth squash/misprediction instead of the run's tail (implies -pipeview)")
		pvFrom    = flag.Int64("pipeview-from", 0, "with -pipeview-to: capture the explicit cycle range [from, to) (implies -pipeview)")
		pvTo      = flag.Int64("pipeview-to", 0, "see -pipeview-from")
		pvEvery   = flag.Int64("pipeview-every", 0, "capture one burst of records at the start of every N-cycle window (implies -pipeview)")
		attrDiff  = flag.Bool("attr-diff", false, "profile, decompose, and simulate the baseline and vanguard binaries with attribution on; print the CPI-stack delta and per-branch recovery table, then exit")
		attrCSV   = flag.String("attr-csv", "", "with -attr-diff: also write PREFIX.cpistack.csv and PREFIX.branches.csv")
		bpredOn   = flag.Bool("bpred-report", false, "probe the direction predictor: print the table-level study and per-branch predictability classes, add a bpredstudy section to -json reports (schema "+trace.SchemaV6+")")
		bpredCSV  = flag.String("bpred-csv", "", "write the probed run's per-branch classification as CSV to this file (implies -bpred-report)")
		dispatch  = flag.String("dispatch", "kernels", "instruction dispatch engine: kernels (per-PC compiled at load) or switch (reference exec.Step); results are byte-identical")
		jobs      = flag.Int("jobs", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		lanes     = flag.Int("lanes", 0, fmt.Sprintf("max same-image simulations stepped as one lane group (0 = auto, %d; 1 = scalar); vgrun's units are single runs over distinct binaries, so they always take the scalar fallback — the flag exists for parity with spec/ablate", pipeline.DefaultLanes))
		cacheDir  = flag.String("cache-dir", engine.DefaultDir(), "on-disk run cache directory")
		noCache   = flag.Bool("no-cache", false, "disable the on-disk run cache")
		progress  = flag.Bool("progress", false, "render a live engine status line on stderr")
		listen    = flag.String("listen", "", "serve live progress over HTTP on this address (e.g. :0): /progress JSON, /metrics Prometheus text, /debug/sweep and /debug/bpred dashboards, /healthz, /debug/pprof")
		sweepOut  = flag.String("sweep-trace", "", "record the engine flight recording (one span per unit lifecycle phase) and write it as a "+trace.SweepSchema+" JSON artifact to this file")
		sweepChr  = flag.String("sweep-chrome", "", "record the engine flight recording and write it as a Chrome trace_event timeline (one track per worker; open in chrome://tracing or ui.perfetto.dev) to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to a file")
		memProf   = flag.String("memprofile", "", "write a heap profile to a file on exit")
	)
	flag.Parse()
	if *width < 1 {
		fmt.Fprintf(os.Stderr, "vgrun: -width must be at least 1, got %d\n", *width)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: vgrun [flags] prog.s")
	}
	if *attrDiff && *transform {
		log.Fatal("-attr-diff builds both binaries itself; drop -transform")
	}
	disp, err := exec.ParseDispatch(*dispatch)
	if err != nil {
		log.Fatal(err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	p, err := asm.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}

	var rep *core.Report
	if *transform {
		prof, err := profile.CollectDefault(ir.MustLinearize(p), mem.New(), *maxInstrs)
		if err != nil {
			log.Fatalf("profile: %v", err)
		}
		rep, err = core.Transform(p, prof, core.DefaultOptions())
		if err != nil {
			log.Fatalf("transform: %v", err)
		}
		fmt.Fprintf(os.Stderr, "converted %d branch(es), code size %+.1f%%\n",
			len(rep.Converted), rep.PISCS())
		sched.Program(p, sched.DefaultModel(*width))
	}
	if *dump {
		fmt.Print(asm.Format(p))
		return
	}

	im := ir.MustLinearize(p)
	gm := mem.New()
	gst, fstats, err := interp.Run(im, gm, interp.Options{MaxInstrs: *maxInstrs, Dispatch: disp})
	if err != nil {
		log.Fatalf("interpret: %v", err)
	}
	fmt.Printf("functional: %d instructions, %d branches (%d taken), halted=%v\n",
		fstats.Instrs, fstats.Branches, fstats.Taken, gst.Halted)

	var cache *engine.Cache
	if !*noCache && *cacheDir != "" {
		if c, err := engine.Open(*cacheDir); err != nil {
			log.Printf("warning: run cache disabled: %v", err)
		} else {
			cache = c
		}
	}
	var mon *engine.Monitor
	if *progress || *listen != "" {
		mon = engine.NewMonitor()
		if *listen != "" {
			addr, closeSrv, err := mon.Serve(*listen)
			if err != nil {
				log.Fatalf("listen: %v", err)
			}
			defer closeSrv()
			fmt.Fprintf(os.Stderr, "monitor listening on http://%s (/progress, /metrics, /debug/sweep, /healthz, /debug/pprof)\n", addr)
		}
	}
	var recorder *engine.SweepRecorder
	if *sweepOut != "" || *sweepChr != "" {
		recorder = engine.NewSweepRecorder()
	}
	var stopStatus func()
	if *progress {
		stopStatus = mon.StartStatus(os.Stderr, 0)
	}

	if *attrDiff {
		runAttrDiff(p, im, gm, src, cache, mon, recorder, stopStatus, *width, *maxInstrs, *jobs, *lanes, disp, *attrCSV, *sweepOut, *sweepChr)
		return
	}
	// Event tracing needs a live machine, so those runs bypass the cache
	// (as do profiled runs — a cache hit would profile nothing); cache
	// hits skip the memory cross-check (the run was verified when its
	// result was computed and stored).
	tracing := *doTrace || *traceAll || *chromeOut != "" || *cpuProf != ""

	// Pipeview capture rides inside Stats, so pipeviewed runs stay
	// cacheable: the waterfall, genealogy and Konata renderings below all
	// work from the cached report.
	var pvCfg *pipeview.Config
	if *pviewOn || *konataOut != "" || *pvAround > 0 || *pvTo > 0 || *pvEvery > 0 {
		c := pipeview.DefaultConfig()
		c.AroundSquash = *pvAround
		c.From, c.To = *pvFrom, *pvTo
		c.EveryWindow = *pvEvery
		pvCfg = &c
	}
	// The predictor observatory rides inside Stats like pipeview, so
	// probed runs stay cacheable too.
	probeOn := *bpredOn || *bpredCSV != ""
	// v4: the dispatch engine joined the key — kernels and switch are
	// byte-identical, but the namespace moves with the simulator core.
	// v5: the probe joined the key, so probed runs (whose Stats carry a
	// bpredstudy) never alias plain entries.
	key := ""
	if !tracing {
		key = engine.Key("vgrun/v5", string(src), *width, *transform, *maxInstrs, *sampleWin, *attrOn, pvCfg, disp.String(), probeOn)
	}

	runTiming := func(context.Context) (*pipeline.Stats, error) {
		cfg := pipeline.DefaultConfig(*width)
		cfg.SampleWindow = *sampleWin
		cfg.Attr = *attrOn
		cfg.Pipeview = pvCfg
		cfg.Dispatch = disp
		cfg.Probe = probeOn
		mach := pipeline.New(im, mem.New(), cfg)

		// An always-on bounded ring keeps the most recent lifecycle events
		// so a failing run can explain itself post mortem.
		ring := trace.NewRing(64)
		sinks := []trace.Sink{ring}
		if *doTrace || *traceAll {
			sinks = append(sinks, &trace.Text{W: os.Stderr, All: *traceAll})
		}
		var chrome *trace.Chrome
		if *chromeOut != "" {
			f, err := os.Create(*chromeOut)
			if err != nil {
				return nil, err
			}
			chrome = trace.NewChrome(f)
			sinks = append(sinks, chrome)
		}
		mach.Sink = trace.Tee(sinks...)

		st, simErr := mach.Run()
		if chrome != nil {
			if err := chrome.Close(); err != nil {
				return nil, fmt.Errorf("chrome trace: %w", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", *chromeOut)
		}
		if simErr != nil {
			fmt.Fprintf(os.Stderr, "last %d pipeline events before the failure:\n", ring.Len())
			trace.WriteEvents(os.Stderr, ring.Events())
			return nil, simErr
		}
		if !mach.Memory().Equal(gm) {
			return nil, fmt.Errorf("timing simulation diverged from the golden model")
		}
		return st, nil
	}

	results, est, err := engine.Run(context.Background(),
		engine.Config{Jobs: *jobs, Cache: cache, Monitor: mon, Lanes: *lanes, Recorder: recorder},
		[]engine.Unit[*pipeline.Stats]{{Label: "timing/" + flag.Arg(0), Key: key, Run: runTiming}})
	if stopStatus != nil {
		stopStatus()
	}
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	sweep, err := harness.WriteSweepArtifacts(recorder, *sweepOut, *sweepChr, cache)
	if err != nil {
		log.Fatal(err)
	}
	if *sweepOut != "" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *sweepOut)
	}
	if *sweepChr != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", *sweepChr)
	}
	st := results[0]
	if est.Units[0].CacheHit {
		fmt.Fprintf(os.Stderr, "timing run served from the run cache (%s)\n", cache.Dir())
	}
	if mon != nil && st.Attr != nil {
		mon.ObserveAttr(st.Attr.Slots)
	}
	if mon != nil && st.Bpred != nil {
		mon.ObserveBpred(st.Bpred)
	}
	fmt.Printf("timing:     %d cycles, IPC %.3f, %d issued (%d wrong-path), MPKI %.2f\n",
		st.Cycles, st.IPC(), st.Issued, st.WrongPathIssued, st.MPKI())
	if st.Predicts > 0 {
		fmt.Printf("decomposed: %d predicts, %d resolves, %d repairs, DBB high-water %d\n",
			st.Predicts, st.Resolves, st.ResMispredicts, st.MaxDBBOccupancy)
	}
	if !*noHists {
		fmt.Println()
		textplot.Hist(os.Stdout, "fetch-to-issue latency (cycles)", &st.FetchToIssue, 40)
		textplot.Hist(os.Stdout, "misprediction repair penalty (cycles)", &st.RepairPenalty, 40)
		if st.Predicts > 0 {
			textplot.Hist(os.Stdout, "DBB occupancy (outstanding predicts)", &st.DBBOccupancy, 40)
			textplot.Hist(os.Stdout, "resolve stall run length (cycles)", &st.StallRunResolve, 40)
		}
		textplot.Hist(os.Stdout, "branch stall run length (cycles)", &st.StallRunBranch, 40)
		textplot.Hist(os.Stdout, "empty-fetch stall run length (cycles)", &st.StallRunEmpty, 40)
	}
	if sr := st.Samples; sr != nil && len(sr.Windows) > 0 {
		fmt.Printf("\ntime series (%d windows of %d cycles", len(sr.Windows), sr.WindowCycles)
		if sr.Dropped > 0 {
			fmt.Printf(", %d oldest dropped", sr.Dropped)
		}
		fmt.Println("):")
		textplot.Spark(os.Stdout, "  ipc          ", sr.Values(func(w *sample.Window) float64 { return w.IPC() }), 60)
		textplot.Spark(os.Stdout, "  mispredicts  ", sr.Values(func(w *sample.Window) float64 { return float64(w.Mispredicts()) }), 60)
		if st.Predicts > 0 {
			textplot.Spark(os.Stdout, "  resolves     ", sr.Values(func(w *sample.Window) float64 { return float64(w.Resolves) }), 60)
			textplot.Spark(os.Stdout, "  dbb high-water", sr.Values(func(w *sample.Window) float64 { return float64(w.DBBHighWater) }), 60)
		}
		textplot.Spark(os.Stdout, "  l1d misses   ", sr.Values(func(w *sample.Window) float64 { return float64(w.L1DMisses) }), 60)
		textplot.Spark(os.Stdout, "  stall cycles ", sr.Values(func(w *sample.Window) float64 {
			return float64(w.StallEmpty + w.StallOperand + w.StallBranch + w.StallResolve + w.StallFU)
		}), 60)
	}

	if st.Attr != nil {
		fmt.Println()
		harness.WriteAttrReport(os.Stdout, "cycle attribution (cycles by cause)", st.Attr, 10)
	}

	if st.Bpred != nil {
		if err := st.Bpred.CheckAgainst(st.CondBranches+st.Resolves, st.BrMispredicts+st.ResMispredicts); err != nil {
			log.Fatalf("predictor study conservation: %v", err)
		}
		fmt.Println()
		harness.WriteBpredStudy(os.Stdout, "predictor study", st.Bpred, 10)
		if *bpredCSV != "" {
			f, err := os.Create(*bpredCSV)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := harness.WriteBpredStudyCSV(f, flag.Arg(0), workload.Input{}, *width, "timing", st.Bpred); err != nil {
				f.Close()
				log.Fatalf("%s: %v", *bpredCSV, err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *bpredCSV)
		}
	}

	if pv := st.Pipeview; pv != nil {
		fmt.Println()
		title := fmt.Sprintf("pipeline waterfall (%s trigger)", pv.Trigger)
		textplot.Waterfall(os.Stdout, title, pv, 64)
		fmt.Println()
		pipeview.WriteGenealogy(os.Stdout, pv, st.Attr)
		if *konataOut != "" {
			if err := pipeview.WriteKonataFile(*konataOut, pv); err != nil {
				log.Fatalf("konata: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (open in the Konata pipeline viewer)\n", *konataOut)
		}
	}

	if *jsonOut != "" {
		report := trace.NewReport("vgrun")
		bench := &trace.BenchReport{Name: flag.Arg(0)}
		if rep != nil {
			bench.Transform = rep.Telemetry()
		}
		bench.Runs = append(bench.Runs, st.RunReport("timing", *width))
		report.Benchmarks = append(report.Benchmarks, bench)
		report.Engine = &trace.EngineReport{
			Jobs:        est.Jobs,
			Units:       len(est.Units),
			CacheHits:   est.CacheHits,
			CacheMisses: est.CacheMisses,
			WallMS:      est.Wall.Seconds() * 1000,
		}
		report.Sweep = sweep
		if err := report.WriteFile(*jsonOut); err != nil {
			log.Fatalf("json report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}

// runAttrDiff is the -attr-diff path: build the vanguard binary from the
// parsed (untransformed) program, simulate both binaries with cycle
// attribution on as engine units (cached, monitored), and render the
// differential — which causes shrank, and which branches paid off.
func runAttrDiff(p *ir.Program, baseIm *ir.Image, gm *mem.Memory, src []byte,
	cache *engine.Cache, mon *engine.Monitor, recorder *engine.SweepRecorder, stopStatus func(),
	width int, maxInstrs int64, jobs, lanes int, disp exec.Dispatch, csvPrefix, sweepOut, sweepChr string) {
	prof, err := profile.CollectDefault(baseIm, mem.New(), maxInstrs)
	if err != nil {
		log.Fatalf("profile: %v", err)
	}
	expProg := p.Clone()
	rep, err := core.Transform(expProg, prof, core.DefaultOptions())
	if err != nil {
		log.Fatalf("transform: %v", err)
	}
	sched.Program(expProg, sched.DefaultModel(width))
	expIm := ir.MustLinearize(expProg)

	sim := func(im *ir.Image, binary string) engine.Unit[*pipeline.Stats] {
		return engine.Unit[*pipeline.Stats]{
			Label: binary + "/" + flag.Arg(0),
			Key:   engine.Key("vgrun-attrdiff/v2", string(src), width, maxInstrs, binary, disp.String()),
			Run: func(context.Context) (*pipeline.Stats, error) {
				cfg := pipeline.DefaultConfig(width)
				cfg.Attr = true
				cfg.Dispatch = disp
				mach := pipeline.New(im, mem.New(), cfg)
				st, err := mach.Run()
				if err != nil {
					return nil, err
				}
				if !mach.Memory().Equal(gm) {
					return nil, fmt.Errorf("%s binary diverged from the golden model", binary)
				}
				return st, nil
			},
		}
	}
	results, _, err := engine.Run(context.Background(),
		engine.Config{Jobs: jobs, Cache: cache, Monitor: mon, Lanes: lanes, Recorder: recorder},
		[]engine.Unit[*pipeline.Stats]{sim(baseIm, "base"), sim(expIm, "exp")})
	if stopStatus != nil {
		stopStatus()
	}
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	if _, err := harness.WriteSweepArtifacts(recorder, sweepOut, sweepChr, cache); err != nil {
		log.Fatal(err)
	}
	d := &harness.AttrDiff{
		Benchmark: flag.Arg(0), Width: width,
		Base: results[0].Attr, Exp: results[1].Attr,
		Profile: prof, Transform: rep,
	}
	if mon != nil {
		mon.ObserveAttr(d.Base.Slots)
		mon.ObserveAttr(d.Exp.Slots)
	}
	fmt.Printf("converted %d branch(es), code size %+.1f%%\n\n", len(rep.Converted), rep.PISCS())
	harness.WriteAttrDiff(os.Stdout, d, 10)
	if csvPrefix != "" {
		for _, out := range []struct {
			suffix string
			write  func(io.Writer, *harness.AttrDiff) (int, error)
		}{
			{".cpistack.csv", harness.WriteCPIStackCSV},
			{".branches.csv", harness.WriteBranchDeltaCSV},
		} {
			path := csvPrefix + out.suffix
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := out.write(f, d); err != nil {
				f.Close()
				log.Fatalf("%s: %v", path, err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}
