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
	"errors"
	"fmt"
	"io"
	"os"

	"vanguard/internal/asm"
	"vanguard/internal/cli"
	"vanguard/internal/core"
	"vanguard/internal/engine"
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

func main() { cli.Main("vgrun", run) }

func run(args []string, stdout, stderr io.Writer) (err error) {
	c := cli.New("vgrun", stdout, stderr, cli.EngineFlags|cli.MonitorFlags|cli.RecorderFlags|cli.ProfileFlags)
	c.Bpred("probe the direction predictor: print the table-level study and per-branch predictability classes, add a bpredstudy section to -json reports (schema "+trace.SchemaV6+")",
		"write the probed run's per-branch classification as CSV to this file (implies -bpred-report)")
	fs := c.Flags
	var (
		width     = fs.Int("width", 4, "issue width")
		transform = fs.Bool("transform", false, "apply the decomposed branch transformation (profile-guided)")
		dump      = fs.Bool("dump", false, "print the (possibly transformed) assembly and exit")
		maxInstrs = fs.Int64("max-instrs", 50_000_000, "functional instruction cap")
		doTrace   = fs.Bool("trace", false, "print issue/mispredict events from the timing run (historical line format)")
		traceAll  = fs.Bool("trace-all", false, "like -trace, but print every lifecycle event (fetch, commit, squash, DBB push/pop, cache misses, faults)")
		jsonOut   = fs.String("json", "", "write a machine-readable telemetry report to this file; its schema tag (vanguard-telemetry/vN) says which optional sections it carries")
		chromeOut = fs.String("chrome-trace", "", "write a Chrome trace_event timeline (open in chrome://tracing or ui.perfetto.dev) to this file")
		noHists   = fs.Bool("no-hists", false, "suppress the ASCII histograms in the text report")
		sampleWin = fs.Int64("sample-window", 0, fmt.Sprintf("record a counter time series every N cycles (0 disables; the conventional window is %d)", sample.DefaultWindow))
		attrOn    = fs.Bool("attr", false, "charge every issue slot to a cause: print the CPI stack and offender tables, add an attribution section to -json reports")
		pviewOn   = fs.Bool("pipeview", false, "record per-instruction pipeline lifetimes: print an ASCII waterfall and squash genealogy, add a pipeview section to -json reports (schema "+trace.SchemaV4+")")
		konataOut = fs.String("konata", "", "write the captured lifetimes in Konata/O3PipeView format (open in the Konata viewer) to this file; implies -pipeview")
		pvAround  = fs.Int("pipeview-around", 0, "capture around the Nth squash/misprediction instead of the run's tail (implies -pipeview)")
		pvFrom    = fs.Int64("pipeview-from", 0, "with -pipeview-to: capture the explicit cycle range [from, to) (implies -pipeview)")
		pvTo      = fs.Int64("pipeview-to", 0, "see -pipeview-from")
		pvEvery   = fs.Int64("pipeview-every", 0, "capture one burst of records at the start of every N-cycle window (implies -pipeview)")
		attrDiff  = fs.Bool("attr-diff", false, "profile, decompose, and simulate the baseline and vanguard binaries with attribution on; print the CPI-stack delta and per-branch recovery table, then exit")
		attrCSV   = fs.String("attr-csv", "", "with -attr-diff: also write PREFIX.cpistack.csv and PREFIX.branches.csv")
	)
	if err := c.Parse(args); err != nil {
		return err
	}
	if err := c.CheckWidth(*width); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: vgrun [flags] prog.s")
	}
	if *attrDiff && *transform {
		return errors.New("-attr-diff builds both binaries itself; drop -transform")
	}
	path := fs.Arg(0)
	defer func() { err = errors.Join(err, c.Close()) }()
	if err := c.Start(); err != nil {
		return err
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := asm.Parse(string(src))
	if err != nil {
		return err
	}

	var rep *core.Report
	if *transform {
		prof, err := profile.CollectDefault(ir.MustLinearize(p), mem.New(), *maxInstrs)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		rep, err = core.Transform(p, prof, core.DefaultOptions())
		if err != nil {
			return fmt.Errorf("transform: %w", err)
		}
		fmt.Fprintf(stderr, "converted %d branch(es), code size %+.1f%%\n",
			len(rep.Converted), rep.PISCS())
		sched.Program(p, sched.DefaultModel(*width))
	}
	if *dump {
		fmt.Fprint(stdout, asm.Format(p))
		return nil
	}

	im := ir.MustLinearize(p)
	gm := mem.New()
	gst, fstats, err := interp.Run(im, gm, interp.Options{MaxInstrs: *maxInstrs})
	if err != nil {
		return fmt.Errorf("interpret: %w", err)
	}
	fmt.Fprintf(stdout, "functional: %d instructions, %d branches (%d taken), halted=%v\n",
		fstats.Instrs, fstats.Branches, fstats.Taken, gst.Halted)

	if *attrDiff {
		return runAttrDiff(c, path, p, im, gm, src, *width, *maxInstrs, *attrCSV)
	}
	// Event tracing needs a live machine, so those runs bypass the cache
	// (as do profiled runs — a cache hit would profile nothing); cache
	// hits skip the memory cross-check (the run was verified when its
	// result was computed and stored).
	tracing := *doTrace || *traceAll || *chromeOut != "" || c.CPUProfile != ""

	// Pipeview capture rides inside Stats, so pipeviewed runs stay
	// cacheable: the waterfall, genealogy and Konata renderings below all
	// work from the cached report.
	var pvCfg *pipeview.Config
	if *pviewOn || *konataOut != "" || *pvAround > 0 || *pvTo > 0 || *pvEvery > 0 {
		pc := pipeview.DefaultConfig()
		pc.AroundSquash = *pvAround
		pc.From, pc.To = *pvFrom, *pvTo
		pc.EveryWindow = *pvEvery
		pvCfg = &pc
	}
	// The predictor observatory rides inside Stats like pipeview, so
	// probed runs stay cacheable too.
	probeOn := c.Probe()
	// v4: the dispatch engine joined the key — kernels and switch are
	// byte-identical, but the namespace moves with the simulator core.
	// v5: the probe joined the key, so probed runs (whose Stats carry a
	// bpredstudy) never alias plain entries. v6: the dispatch engine left
	// the key (kernels only).
	key := ""
	if !tracing {
		key = engine.Key("vgrun/v6", string(src), *width, *transform, *maxInstrs, *sampleWin, *attrOn, pvCfg, probeOn)
	}

	runTiming := func(context.Context) (*pipeline.Stats, error) {
		cfg := pipeline.DefaultConfig(*width)
		cfg.SampleWindow = *sampleWin
		cfg.Attr = *attrOn
		cfg.Pipeview = pvCfg
		cfg.Probe = probeOn
		mach := pipeline.New(im, mem.New(), cfg)

		// An always-on bounded ring keeps the most recent lifecycle events
		// so a failing run can explain itself post mortem.
		ring := trace.NewRing(64)
		sinks := []trace.Sink{ring}
		if *doTrace || *traceAll {
			sinks = append(sinks, &trace.Text{W: stderr, All: *traceAll})
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
			fmt.Fprintf(stderr, "wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", *chromeOut)
		}
		if simErr != nil {
			fmt.Fprintf(stderr, "last %d pipeline events before the failure:\n", ring.Len())
			trace.WriteEvents(stderr, ring.Events())
			return nil, simErr
		}
		if !mach.Memory().Equal(gm) {
			return nil, fmt.Errorf("timing simulation diverged from the golden model")
		}
		return st, nil
	}

	results, est, err := engine.Run(context.Background(), c.EngineConfig(),
		[]engine.Unit[*pipeline.Stats]{{Label: "timing/" + path, Key: key, Run: runTiming}})
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	sweep, err := c.Finish()
	if err != nil {
		return err
	}
	st := results[0]
	if est.Units[0].CacheHit {
		fmt.Fprintf(stderr, "timing run served from the run cache (%s)\n", c.Cache.Dir())
	}
	if c.Monitor != nil && st.Attr != nil {
		c.Monitor.ObserveAttr(st.Attr.Slots)
	}
	if c.Monitor != nil && st.Bpred != nil {
		c.Monitor.ObserveBpred(st.Bpred)
	}
	fmt.Fprintf(stdout, "timing:     %d cycles, IPC %.3f, %d issued (%d wrong-path), MPKI %.2f\n",
		st.Cycles, st.IPC(), st.Issued, st.WrongPathIssued, st.MPKI())
	if st.Predicts > 0 {
		fmt.Fprintf(stdout, "decomposed: %d predicts, %d resolves, %d repairs, DBB high-water %d\n",
			st.Predicts, st.Resolves, st.ResMispredicts, st.MaxDBBOccupancy)
	}
	if !*noHists {
		fmt.Fprintln(stdout)
		textplot.Hist(stdout, "fetch-to-issue latency (cycles)", &st.FetchToIssue, 40)
		textplot.Hist(stdout, "misprediction repair penalty (cycles)", &st.RepairPenalty, 40)
		if st.Predicts > 0 {
			textplot.Hist(stdout, "DBB occupancy (outstanding predicts)", &st.DBBOccupancy, 40)
			textplot.Hist(stdout, "resolve stall run length (cycles)", &st.StallRunResolve, 40)
		}
		textplot.Hist(stdout, "branch stall run length (cycles)", &st.StallRunBranch, 40)
		textplot.Hist(stdout, "empty-fetch stall run length (cycles)", &st.StallRunEmpty, 40)
	}
	if sr := st.Samples; sr != nil && len(sr.Windows) > 0 {
		fmt.Fprintf(stdout, "\ntime series (%d windows of %d cycles", len(sr.Windows), sr.WindowCycles)
		if sr.Dropped > 0 {
			fmt.Fprintf(stdout, ", %d oldest dropped", sr.Dropped)
		}
		fmt.Fprintln(stdout, "):")
		textplot.Spark(stdout, "  ipc          ", sr.Values(func(w *sample.Window) float64 { return w.IPC() }), 60)
		textplot.Spark(stdout, "  mispredicts  ", sr.Values(func(w *sample.Window) float64 { return float64(w.Mispredicts()) }), 60)
		if st.Predicts > 0 {
			textplot.Spark(stdout, "  resolves     ", sr.Values(func(w *sample.Window) float64 { return float64(w.Resolves) }), 60)
			textplot.Spark(stdout, "  dbb high-water", sr.Values(func(w *sample.Window) float64 { return float64(w.DBBHighWater) }), 60)
		}
		textplot.Spark(stdout, "  l1d misses   ", sr.Values(func(w *sample.Window) float64 { return float64(w.L1DMisses) }), 60)
		textplot.Spark(stdout, "  stall cycles ", sr.Values(func(w *sample.Window) float64 {
			return float64(w.StallEmpty + w.StallOperand + w.StallBranch + w.StallResolve + w.StallFU)
		}), 60)
	}

	if st.Attr != nil {
		fmt.Fprintln(stdout)
		harness.WriteAttrReport(stdout, "cycle attribution (cycles by cause)", st.Attr, 10)
	}

	if st.Bpred != nil {
		if err := st.Bpred.CheckAgainst(st.CondBranches+st.Resolves, st.BrMispredicts+st.ResMispredicts); err != nil {
			return fmt.Errorf("predictor study conservation: %w", err)
		}
		fmt.Fprintln(stdout)
		harness.WriteBpredStudy(stdout, "predictor study", st.Bpred, 10)
		if c.BpredCSV != "" {
			if err := c.WriteCSV(c.BpredCSV, func(w io.Writer) (int, error) {
				return harness.WriteBpredStudyCSV(w, path, workload.Input{}, *width, "timing", st.Bpred)
			}); err != nil {
				return err
			}
		}
	}

	if pv := st.Pipeview; pv != nil {
		fmt.Fprintln(stdout)
		title := fmt.Sprintf("pipeline waterfall (%s trigger)", pv.Trigger)
		textplot.Waterfall(stdout, title, pv, 64)
		fmt.Fprintln(stdout)
		pipeview.WriteGenealogy(stdout, pv, st.Attr)
		if *konataOut != "" {
			if err := pipeview.WriteKonataFile(*konataOut, pv); err != nil {
				return fmt.Errorf("konata: %w", err)
			}
			fmt.Fprintf(stderr, "wrote %s (open in the Konata pipeline viewer)\n", *konataOut)
		}
	}

	if *jsonOut != "" {
		report := trace.NewReport("vgrun")
		bench := &trace.BenchReport{Name: path}
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
		if err := c.WriteFile(*jsonOut, report.Write); err != nil {
			return fmt.Errorf("json report: %w", err)
		}
	}
	return nil
}

// runAttrDiff is the -attr-diff path: build the vanguard binary from the
// parsed (untransformed) program, simulate both binaries with cycle
// attribution on as engine units (cached, monitored), and render the
// differential — which causes shrank, and which branches paid off.
func runAttrDiff(c *cli.Command, path string, p *ir.Program, baseIm *ir.Image, gm *mem.Memory, src []byte,
	width int, maxInstrs int64, csvPrefix string) error {
	prof, err := profile.CollectDefault(baseIm, mem.New(), maxInstrs)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	expProg := p.Clone()
	rep, err := core.Transform(expProg, prof, core.DefaultOptions())
	if err != nil {
		return fmt.Errorf("transform: %w", err)
	}
	sched.Program(expProg, sched.DefaultModel(width))
	expIm := ir.MustLinearize(expProg)

	sim := func(im *ir.Image, binary string) engine.Unit[*pipeline.Stats] {
		return engine.Unit[*pipeline.Stats]{
			Label: binary + "/" + path,
			Key:   engine.Key("vgrun-attrdiff/v3", string(src), width, maxInstrs, binary),
			Run: func(context.Context) (*pipeline.Stats, error) {
				cfg := pipeline.DefaultConfig(width)
				cfg.Attr = true
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
	results, _, err := engine.Run(context.Background(), c.EngineConfig(),
		[]engine.Unit[*pipeline.Stats]{sim(baseIm, "base"), sim(expIm, "exp")})
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if _, err := c.Finish(); err != nil {
		return err
	}
	d := &harness.AttrDiff{
		Benchmark: path, Width: width,
		Base: results[0].Attr, Exp: results[1].Attr,
		Profile: prof, Transform: rep,
	}
	if c.Monitor != nil {
		c.Monitor.ObserveAttr(d.Base.Slots)
		c.Monitor.ObserveAttr(d.Exp.Slots)
	}
	fmt.Fprintf(c.Stdout, "converted %d branch(es), code size %+.1f%%\n\n", len(rep.Converted), rep.PISCS())
	harness.WriteAttrDiff(c.Stdout, d, 10)
	if csvPrefix != "" {
		return c.WriteAttrCSV(csvPrefix, d)
	}
	return nil
}
