// Command figures regenerates the characterization figures and the
// predictor-sensitivity study:
//
//	figures -fig 2            predictability vs bias, SPEC 2006 Integer
//	figures -fig 3            predictability vs bias, SPEC 2006 FP
//	figures -sensitivity      Section 5.3 predictor ladder on the four
//	                          hard-to-predict integer benchmarks
//	figures -cpistack mcf     baseline-vs-vanguard CPI stack with per-branch
//	                          delta attribution for one benchmark
//
// Profiling and simulation run on the experiment engine (-jobs bounds the
// worker pool; -cache-dir/-no-cache control the on-disk run cache).
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"vanguard/internal/cli"
	"vanguard/internal/harness"
	"vanguard/internal/sample"
	"vanguard/internal/textplot"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// dumpSamples renders the samples sections of a telemetry report: CSV on
// stdout by default (one row per window, see harness.WriteSamplesCSV),
// or per-run sparklines with -plot.
func dumpSamples(c *cli.Command, path string, plot bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := trace.ReadReport(f)
	if err != nil {
		return err
	}
	noSamples := fmt.Errorf("%s has no samples sections (re-run the producing tool with -sample-window)", path)
	if !plot {
		rows, err := harness.WriteSamplesCSV(c.Stdout, rep)
		if err != nil {
			return err
		}
		if rows == 0 {
			return noSamples
		}
		c.Log.Printf("%d window rows", rows)
		return nil
	}
	plotted := 0
	for _, b := range rep.Benchmarks {
		for _, run := range b.Runs {
			sr := run.Samples
			if sr == nil || len(sr.Windows) == 0 {
				continue
			}
			name := b.Name
			if run.Label != "" {
				name += "/" + run.Label
			}
			if run.Input != "" {
				name += "/" + run.Input
			}
			fmt.Fprintf(c.Stdout, "%s w%d (%d windows of %d cycles):\n", name, run.Width, len(sr.Windows), sr.WindowCycles)
			textplot.Spark(c.Stdout, "  ipc        ", sr.Values(func(w *sample.Window) float64 { return w.IPC() }), 60)
			textplot.Spark(c.Stdout, "  mispredicts", sr.Values(func(w *sample.Window) float64 { return float64(w.Mispredicts()) }), 60)
			textplot.Spark(c.Stdout, "  l1d misses ", sr.Values(func(w *sample.Window) float64 { return float64(w.L1DMisses) }), 60)
			plotted++
		}
	}
	if plotted == 0 {
		return noSamples
	}
	return nil
}

// writeBpredCSV exports a predictor differential's classification ×
// conversion join and both binaries' per-branch studies.
func writeBpredCSV(c *cli.Command, prefix string, d *harness.BpredDiff) error {
	if err := c.WriteCSV(prefix+".bpredjoin.csv", func(w io.Writer) (int, error) { return harness.WriteBpredJoinCSV(w, d) }); err != nil {
		return err
	}
	return c.WriteFile(prefix+".bpredstudy.csv", func(w io.Writer) error {
		if _, err := harness.WriteBpredStudyCSV(w, d.Benchmark, d.Input, d.Width, "base", d.Base); err != nil {
			return err
		}
		_, err := harness.WriteBpredStudyCSV(w, d.Benchmark, d.Input, d.Width, "exp", d.Exp)
		return err
	})
}

func main() { cli.Main("figures", run) }

func run(args []string, stdout, stderr io.Writer) (err error) {
	c := cli.New("figures", stdout, stderr, cli.EngineFlags|cli.MonitorFlags|cli.RecorderFlags)
	c.Bpred("with -cpistack: also probe both binaries' predictors and render the classification x conversion join (which converted branches were unpredictable vs merely mispredicted)",
		"with -cpistack: write the classification x conversion join as PREFIX.bpredjoin.csv and the per-branch studies as PREFIX.bpredstudy.csv (implies -bpred-report)")
	var (
		fig         = c.Flags.Int("fig", 0, "figure to regenerate (2 or 3)")
		sensitivity = c.Flags.Bool("sensitivity", false, "run the Section 5.3 predictor ladder")
		samples     = c.Flags.String("samples", "", "dump the samples sections of a telemetry report (vgrun/spec -json -sample-window output) as CSV on stdout; with -plot, render sparklines instead")
		cpistack    = c.Flags.String("cpistack", "", "render the baseline-vs-vanguard CPI stack and per-branch delta attribution for this benchmark")
		width       = c.Flags.Int("width", 4, "issue width for -cpistack")
		attrCSV     = c.Flags.String("attr-csv", "", "with -cpistack, also write PREFIX.cpistack.csv and PREFIX.branches.csv using this path prefix")
		fast        = c.Flags.Bool("fast", false, "reduced inputs (quick smoke run)")
		plot        = c.Flags.Bool("plot", false, "render ASCII charts instead of tables")
	)
	if err := c.Parse(args); err != nil {
		return err
	}
	if err := c.CheckWidth(*width); err != nil {
		return err
	}
	if *samples != "" {
		return dumpSamples(c, *samples, *plot)
	}
	if *fig != 2 && *fig != 3 && *cpistack == "" && !*sensitivity {
		return c.Usagef("need -fig 2, -fig 3, -cpistack BENCH, -sensitivity or -samples REPORT")
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	if err := c.Start(); err != nil {
		return err
	}

	in := workload.TrainInput()
	o := harness.DefaultOptions()
	if *fast {
		in.Iters = 1200
		o = harness.FastOptions()
		o.RefInputs = o.RefInputs[:1]
		o.Widths = []int{4}
	}
	c.Options(&o)

	switch {
	case *fig == 2 || *fig == 3:
		suite, title := "int2006", "Figure 2: predictability vs bias, top forward branches, SPEC 2006 Int"
		if *fig == 3 {
			suite, title = "fp2006", "Figure 3: predictability vs bias, top forward branches, SPEC 2006 FP"
		}
		cur, err := harness.BiasPredictabilityCurveOpts(suite, in, o)
		if err != nil {
			return err
		}
		if *plot {
			textplot.Series(stdout, title, [2]string{"bias", "predictability"},
				[2][]float64{cur.Bias, cur.Predictability}, 75, 18)
		} else {
			cur.Write(stdout, title)
		}
	case *cpistack != "":
		cfg, ok := workload.ByName(*cpistack)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", *cpistack)
		}
		if c.Probe() {
			// The joined run: probe + attribution on the same simulations,
			// so the CPI deltas and the predictability classes line up.
			bd, err := harness.RunBpredDiff(cfg, o, *width)
			if err != nil {
				return err
			}
			harness.WriteAttrDiff(stdout, bd.Attr, 10)
			fmt.Fprintln(stdout)
			harness.WriteBpredReport(stdout, bd, 10)
			if *attrCSV != "" {
				if err := c.WriteAttrCSV(*attrCSV, bd.Attr); err != nil {
					return err
				}
			}
			if c.BpredCSV != "" {
				if err := writeBpredCSV(c, c.BpredCSV, bd); err != nil {
					return err
				}
			}
			break
		}
		d, err := harness.RunAttrDiff(cfg, o, *width)
		if err != nil {
			return err
		}
		harness.WriteAttrDiff(stdout, d, 10)
		if *attrCSV != "" {
			if err := c.WriteAttrCSV(*attrCSV, d); err != nil {
				return err
			}
		}
	case *sensitivity:
		rows, err := harness.Sensitivity(harness.SensitivityBenchmarks(), o)
		if err != nil {
			return err
		}
		harness.WriteSensitivity(stdout, rows)
	}
	_, err = c.Finish()
	return err
}
