// Command ablate runs the design-choice ablations DESIGN.md calls out:
// the 5% selection threshold, the hoisting depth, the 16-entry DBB, and
// the condition-slice push-down. Every sweep's full (point x benchmark)
// matrix executes on the experiment engine's worker pool.
//
//	ablate -sweep gap|hoist|dbb|slice|all [-fast] [-jobs N] [-json out.json]
package main

import (
	"errors"
	"fmt"
	"io"

	"vanguard/internal/cli"
	"vanguard/internal/harness"
	"vanguard/internal/workload"
)

func main() { cli.Main("ablate", run) }

func run(args []string, stdout, stderr io.Writer) (err error) {
	c := cli.New("ablate", stdout, stderr, cli.EngineFlags|cli.MonitorFlags|cli.RecorderFlags)
	c.Bpred("probe the predictor on every simulation and print the ablation benchmarks' table-level studies",
		"probe the predictor on every simulation and write the ablation benchmarks' per-branch classifications as CSV to this file")
	var (
		sweep = c.Flags.String("sweep", "all", "gap | hoist | dbb | slice | all")
		fast  = c.Flags.Bool("fast", false, "reduced inputs")
		attrF = c.Flags.Bool("attr", false, "attribute every issue slot to a cause on every simulation (feeds the monitor's /metrics per-cause counters)")
		jsonF = c.Flags.String("json", "", "also write the sweeps as a structured telemetry report to this file")
	)
	if err := c.Parse(args); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	if err := c.Start(); err != nil {
		return err
	}

	o := harness.DefaultOptions()
	if *fast {
		o = harness.FastOptions()
		o.RefInputs = o.RefInputs[:1]
	}
	c.Options(&o)
	o.Attr = *attrF
	names := harness.AblationBenchmarks()

	titles := map[string]string{
		"gap":   "Selection threshold sweep (paper: predictability-bias >= 5% is best)",
		"hoist": "Hoist depth sweep",
		"dbb":   "DBB size sweep (paper: 16 entries more than sufficient)",
		"slice": "Condition-slice push-down ablation",
	}
	sweeps := map[string][]harness.AblationPoint{}
	var order []string

	runSweep := func(kind string) error {
		var pts []harness.AblationPoint
		var err error
		switch kind {
		case "gap":
			pts, err = harness.SweepMinGap(names, o, []float64{0, 0.02, 0.05, 0.10, 0.20})
		case "hoist":
			pts, err = harness.SweepMaxHoist(names, o, []int{0, 2, 4, 8, 12, 16})
		case "dbb":
			pts, err = harness.SweepDBBSize(names, o, []int{2, 4, 8, 16, 32})
		case "slice":
			pts, err = harness.SlicePushdownAblation(names, o)
		default:
			return fmt.Errorf("unknown sweep %q", kind)
		}
		if err != nil {
			return err
		}
		harness.WriteAblation(stdout, titles[kind], pts)
		sweeps[titles[kind]] = pts
		order = append(order, titles[kind])
		return nil
	}
	kinds := []string{*sweep}
	if *sweep == "all" {
		kinds = []string{"gap", "hoist", "dbb", "slice"}
	}
	for _, k := range kinds {
		if err := runSweep(k); err != nil {
			return err
		}
	}
	if o.Probe {
		// The sweeps above reduce to speedup points; the observatory needs
		// the full Stats, so probe the ablation benchmark set directly (one
		// engine job set — the run cache makes repeats cheap).
		var cs []workload.Config
		for _, n := range names {
			cfg, ok := workload.ByName(n)
			if !ok {
				return fmt.Errorf("unknown ablation benchmark %q", n)
			}
			cs = append(cs, cfg)
		}
		rs, err := harness.RunBenchmarks(cs, o)
		if err != nil {
			return err
		}
		if err := c.WriteBpred("\nPredictor observatory (ablation benchmarks, first REF input):", 5, rs); err != nil {
			return err
		}
	}
	if *jsonF != "" {
		if err := c.WriteReport(*jsonF, harness.AblationJSON("ablate", sweeps, order)); err != nil {
			return err
		}
	}
	_, err = c.Finish()
	return err
}
