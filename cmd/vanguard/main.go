// Command vanguard runs one benchmark end to end: generate, profile on
// TRAIN, build the baseline and decomposed-branch binaries, simulate both
// on the REF inputs, and print the resulting metrics.
//
// Usage:
//
//	vanguard -bench h264ref [-width 4] [-predictor default] [-iters 4000]
//	vanguard -bench mcf -dump          # disassemble both binaries
//	vanguard -list                     # enumerate the SPEC stand-ins
package main

import (
	"errors"
	"fmt"
	"io"

	"vanguard/internal/bpred"
	"vanguard/internal/cli"
	"vanguard/internal/harness"
	"vanguard/internal/metrics"
	"vanguard/internal/workload"
)

func main() { cli.Main("vanguard", run) }

func run(args []string, stdout, stderr io.Writer) (err error) {
	c := cli.New("vanguard", stdout, stderr, cli.MonitorFlags|cli.RecorderFlags)
	c.Bpred("probe the predictor on both binaries and print the table-level studies with per-branch predictability classes",
		"probe the predictor and write every run's per-branch classification as CSV to this file (implies -bpred-report)")
	var (
		bench     = c.Flags.String("bench", "h264ref", "benchmark name (any SPEC 2000/2006 stand-in)")
		width     = c.Flags.Int("width", 4, "issue width (2, 4 or 8)")
		predictor = c.Flags.String("predictor", "default", "direction predictor: static|bimodal|gshare|default|tage|isl-tage")
		iters     = c.Flags.Int64("iters", 0, "override REF iteration count")
		dump      = c.Flags.Bool("dump", false, "disassemble the baseline and experimental binaries")
		attrF     = c.Flags.Bool("attr", false, "attribute every issue slot to a cause and print the baseline-vs-vanguard cycle stack, per-branch deltas, and offender tables")
		list      = c.Flags.Bool("list", false, "list available benchmarks and exit")
	)
	if err := c.Parse(args); err != nil {
		return err
	}
	if err := c.CheckWidth(*width); err != nil {
		return err
	}

	if *list {
		for _, s := range workload.AllSuites() {
			fmt.Fprintf(stdout, "%s:", s)
			for _, cfg := range workload.Suite(s) {
				fmt.Fprintf(stdout, " %s", cfg.Name)
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}

	cfg, ok := workload.ByName(*bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (try -list)", *bench)
	}
	if bpred.ByName(*predictor) == nil {
		return fmt.Errorf("unknown predictor %q", *predictor)
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	if err := c.Start(); err != nil {
		return err
	}
	o := harness.DefaultOptions()
	c.Options(&o)
	o.Widths = []int{*width}
	o.Attr = *attrF
	o.NewPredictor = func() bpred.DirPredictor { return bpred.ByName(*predictor) }
	if *iters > 0 {
		for i := range o.RefInputs {
			o.RefInputs[i].Iters = *iters
		}
	}

	if *dump {
		base, exp, _, rep, err := harness.BuildBinaries(cfg, o)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "=== baseline ===")
		fmt.Fprint(stdout, base)
		fmt.Fprintln(stdout, "=== experimental (decomposed branches) ===")
		fmt.Fprint(stdout, exp)
		fmt.Fprintf(stdout, "converted branches: %d, static growth: %.1f%%\n",
			len(rep.Converted), rep.PISCS())
		return nil
	}

	r, err := harness.RunBenchmark(cfg, o)
	if err != nil {
		return err
	}
	row := r.Table2()
	fmt.Fprintf(stdout, "benchmark   %s (%s)\n", cfg.Name, cfg.Suite)
	fmt.Fprintf(stdout, "speedup     %.2f%% (all refs, %d-wide); best ref %.2f%%\n",
		r.SpeedupAllRefsPct(*width), *width, r.SpeedupBestRefPct(*width))
	fmt.Fprintf(stdout, "converted   %d of %d forward branches (PBC %.1f%%)\n",
		len(r.Report.Converted), r.Report.ForwardStatic, row.PBC)
	fmt.Fprintf(stdout, "PDIH %.1f%%  PHI %.1f%%  ASPCB %.1f  MPPKI %.1f  PISCS %.1f%%\n",
		row.PDIH, row.PHI, row.ASPCB, row.MPPKI, row.PISCS)
	for _, in := range r.Inputs {
		for _, wr := range in.Runs {
			fmt.Fprintf(stdout, "input seed %d: base %d cycles (IPC %.3f) -> exp %d cycles (IPC %.3f), %+.2f%%\n",
				in.Input.Seed, wr.Base.Cycles, wr.Base.IPC(), wr.Exp.Cycles, wr.Exp.IPC(),
				metrics.SpeedupPct(wr.Base.Cycles, wr.Exp.Cycles))
		}
	}
	if *attrF && len(r.Inputs) > 0 {
		wr := r.Inputs[0].Runs[0]
		if wr.Base.Attr != nil && wr.Exp.Attr != nil {
			d := &harness.AttrDiff{
				Benchmark: cfg.Name,
				Width:     *width,
				Input:     r.Inputs[0].Input,
				Base:      wr.Base.Attr,
				Exp:       wr.Exp.Attr,
				Profile:   r.Profile,
				Transform: r.Report,
			}
			fmt.Fprintln(stdout)
			harness.WriteAttrDiff(stdout, d, 10)
		}
	}
	if err := c.WriteBpred("", 10, []*harness.BenchResult{r}); err != nil {
		return err
	}
	_, err = c.Finish()
	return err
}
