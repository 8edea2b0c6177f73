// Command spec regenerates the paper's suite-level tables and figures:
//
//	spec -table 2           Table 2 (per-benchmark metrics, SPEC 2006)
//	spec -fig 8..13         speedup figures across suites and widths
//	spec -fig 14            issued-instruction increase
//	spec -icache            Section 6.1 (24KB vs 32KB L1-I)
//	spec -csv out.csv       machine-readable dump of everything (flat CSV)
//	spec -json out.json     structured telemetry report for all suites
//	spec -all               all of the above to stdout
//
// Use -fast for a quick smoke run with reduced inputs. Simulations run on
// the experiment engine: -jobs bounds the worker pool, and the
// content-keyed run cache (-cache-dir, -no-cache) reuses simulation
// results across tables, figures, and invocations. Output is byte-stable
// for any -jobs value; only the engine section of -json reports (wall
// times, hit counts) varies.
package main

import (
	"errors"
	"fmt"
	"io"

	"vanguard/internal/cli"
	"vanguard/internal/harness"
	"vanguard/internal/sample"
	"vanguard/internal/textplot"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

func main() { cli.Main("spec", run) }

func run(args []string, stdout, stderr io.Writer) (err error) {
	c := cli.New("spec", stdout, stderr, cli.EngineFlags|cli.MonitorFlags|cli.RecorderFlags|cli.ProfileFlags)
	c.Bpred("probe the predictor on every simulation and print each benchmark's table-level study; -json reports gain per-run bpredstudy sections (schema "+trace.SchemaV6+")",
		"probe the predictor on every simulation and write the per-branch classifications of all suites as CSV to this file")
	fs := c.Flags
	var (
		table     = fs.Int("table", 0, "regenerate a table (2)")
		fig       = fs.Int("fig", 0, "regenerate a figure (8-14)")
		icache    = fs.Bool("icache", false, "run the Section 6.1 I-cache study")
		csv       = fs.String("csv", "", "write CSV results for all suites to a file")
		jsonF     = fs.String("json", "", "write a structured telemetry report for all suites to a file")
		report    = fs.String("report", "", "write a consolidated markdown report for all suites to a file")
		all       = fs.Bool("all", false, "run every table and figure")
		fast      = fs.Bool("fast", false, "reduced inputs (quick smoke run)")
		plot      = fs.Bool("plot", false, "also render speedup figures as ASCII bar charts")
		schemaF   = fs.Bool("schema", false, "print the telemetry schema version -json would emit, then exit")
		sampleWin = fs.Int64("sample-window", 0, fmt.Sprintf("record a per-run counter time series every N cycles (0 disables; the conventional window is %d)", sample.DefaultWindow))
		attrF     = fs.Bool("attr", false, "attribute every issue slot to a cause on every simulation; -json reports gain per-run attribution sections (schema "+trace.SchemaV3+")")
		pview     = fs.String("pipeview", "", "capture per-instruction pipeline lifetimes on the named benchmark's simulations; -json reports gain per-run pipeview sections (schema "+trace.SchemaV4+")")
	)
	if err := c.Parse(args); err != nil {
		return err
	}
	if *schemaF {
		fmt.Fprintln(stdout, trace.SchemaFor(trace.Sections{
			Samples:     *sampleWin > 0,
			Attribution: *attrF,
			Pipeview:    *pview != "",
			Sweep:       c.Recording(),
			Bpredstudy:  c.Probe(),
		}))
		return nil
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	if err := c.Start(); err != nil {
		return err
	}
	o := harness.DefaultOptions()
	if *fast {
		o = harness.FastOptions()
	}
	c.Options(&o)
	o.SampleWindow = *sampleWin
	o.Attr = *attrF
	o.PipeviewBench = *pview

	sc := harness.NewSuiteCache(o)
	// suites runs (or recalls) the named suites and concatenates their results.
	suites := func(names ...string) ([]*harness.BenchResult, error) {
		var rs []*harness.BenchResult
		for _, n := range names {
			r, err := sc.Suite(n)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r...)
		}
		return rs, nil
	}

	type figure struct {
		suite, title string
		best         bool
		plot         string // bar-chart title under -plot, "" for none
	}
	figures := map[int]figure{
		8:  {"int2006", "Figure 8: SPEC 2006 Integer % speedup, all REF inputs", false, "Figure 8"},
		9:  {"int2006", "Figure 9: SPEC 2006 Integer % speedup, best REF input", true, ""},
		10: {"int2000", "Figure 10: SPEC 2000 Integer % speedup, all REF inputs", false, ""},
		11: {"int2000", "Figure 11: SPEC 2000 Integer % speedup, best REF input", true, ""},
		12: {"fp2006", "Figure 12: SPEC 2006 FP % speedup, all REF inputs", false, "Figure 12"},
		13: {"fp2000", "Figure 13: SPEC 2000 FP % speedup, all REF inputs", false, ""},
	}
	runFigure := func(k int) error {
		if k == 14 {
			rs, err := suites("int2006", "fp2006")
			if err != nil {
				return err
			}
			harness.WriteIssuedFigure(stdout, rs)
			return nil
		}
		f := figures[k]
		rs, err := suites(f.suite)
		if err != nil {
			return err
		}
		harness.WriteSpeedupFigure(stdout, f.title, rs, o.Widths, f.best)
		if *plot && f.plot != "" {
			var bars []textplot.Bar
			for _, r := range rs {
				bars = append(bars, textplot.Bar{Label: r.Config.Name, Value: r.SpeedupAllRefsPct(4)})
			}
			textplot.Bars(stdout, f.plot+" (4-wide)", bars, 50)
		}
		return nil
	}
	runTable2 := func() error {
		rs, err := suites("int2006", "fp2006")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Table 2: SPEC 2006 Int and FP metrics (4-wide, all REF inputs)")
		harness.WriteTable2(stdout, rs)
		return nil
	}
	runICache := func() error {
		rows, err := harness.RunICacheStudy("int2006", o)
		if err != nil {
			return err
		}
		harness.WriteICacheStudy(stdout, rows)
		return nil
	}
	runAll := func() error {
		if err := runTable2(); err != nil {
			return err
		}
		for k := 8; k <= 14; k++ {
			fmt.Fprintln(stdout)
			if err := runFigure(k); err != nil {
				return err
			}
		}
		fmt.Fprintln(stdout)
		return runICache()
	}
	// withAll runs write on the results of every suite.
	withAll := func(write func([]*harness.BenchResult) error) func() error {
		return func() error {
			rs, err := suites(workload.AllSuites()...)
			if err != nil {
				return err
			}
			return write(rs)
		}
	}
	writeBpred := withAll(func(rs []*harness.BenchResult) error {
		return c.WriteBpred("Predictor observatory (first REF input):", 5, rs)
	})
	writeCSV := withAll(func(rs []*harness.BenchResult) error {
		return c.WriteFile(*csv, func(w io.Writer) error { harness.WriteCSV(w, rs, o.Widths); return nil })
	})
	writeJSON := withAll(func(rs []*harness.BenchResult) error {
		return c.WriteReport(*jsonF, harness.JSONReport("spec", rs))
	})
	writeReport := func() error {
		byName := map[string][]*harness.BenchResult{}
		for _, s := range workload.AllSuites() {
			rs, err := suites(s)
			if err != nil {
				return err
			}
			byName[s] = rs
		}
		return c.WriteFile(*report, func(w io.Writer) error { harness.WriteMarkdownReport(w, byName, o.Widths); return nil })
	}

	did := false
	for _, a := range []struct {
		on  bool
		run func() error
	}{
		{*table == 2, runTable2},
		{*fig >= 8 && *fig <= 14, func() error { return runFigure(*fig) }},
		{*icache, runICache},
		{c.Probe(), writeBpred},
		{*all, runAll},
		{*csv != "", writeCSV},
		{*jsonF != "", writeJSON},
		{*report != "", writeReport},
	} {
		if !a.on {
			continue
		}
		did = true
		if err := a.run(); err != nil {
			return err
		}
	}
	if !did {
		return c.Usagef("nothing to do: pass -all, -table 2, -fig N, -icache, -csv, -json, -report, -bpred-report or -bpred-csv")
	}
	_, err = c.Finish()
	return err
}
