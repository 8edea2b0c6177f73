// Package cli owns the flags, and their set-up and tear-down, that the
// simulator commands share: engine, monitor, flight recorder, predictor
// observatory outputs and profiling. A command registers only the flag
// groups it uses, so no command carries a flag that does nothing for it.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/trace"
)

// ErrUsage marks a command-line mistake that has already been reported
// together with the usage text; Main exits with status 2 on it.
var ErrUsage = errors.New("usage error")

// Main runs a command on the process arguments and exits: status 0 on
// success or -h, 2 on a usage error, and 1 on any other error, which it
// prints on stderr as "name: err".
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, ErrUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Group selects shared flags; New takes an | of groups.
type Group uint

const (
	EngineFlags   Group = 1 << iota // -jobs, -cache-dir, -no-cache
	MonitorFlags                    // -progress, -listen
	RecorderFlags                   // -sweep-trace, -sweep-chrome
	ProfileFlags                    // -cpuprofile, -memprofile
)

// Command is one command's flag set together with the engine plumbing
// its shared flags configure.
type Command struct {
	Flags  *flag.FlagSet
	Stdout io.Writer
	Stderr io.Writer
	Log    *log.Logger // diagnostics on Stderr, prefixed "name: "

	// -bpred-report, -bpred-csv and -cpuprofile.
	BpredReport bool
	BpredCSV    string
	CPUProfile  string

	// Set by Start; nil (or zero) when their flags are absent or off.
	Cache    *engine.Cache
	Monitor  *engine.Monitor
	Recorder *engine.SweepRecorder
	// EngineStats accumulates the harness runs configured through
	// Options; nil without EngineFlags.
	EngineStats *harness.EngineStats

	groups      Group
	jobs        int
	cacheDir    string
	noCache     bool
	progress    bool
	listen      string
	sweepTrace  string
	sweepChrome string
	memProfile  string

	cpuFile     *os.File
	closeServer func() error
	stopStatus  func()
}

// New returns the command called name with the given shared flag groups
// registered on its flag set. The command adds its own flags to Flags.
func New(name string, stdout, stderr io.Writer, groups Group) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &Command{Flags: fs, Stdout: stdout, Stderr: stderr, Log: log.New(stderr, name+": ", 0), groups: groups, stopStatus: func() {}}
	if groups&EngineFlags != 0 {
		fs.IntVar(&c.jobs, "jobs", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		fs.StringVar(&c.cacheDir, "cache-dir", engine.DefaultDir(), "on-disk run cache directory")
		fs.BoolVar(&c.noCache, "no-cache", false, "disable the on-disk run cache")
	}
	if groups&MonitorFlags != 0 {
		fs.BoolVar(&c.progress, "progress", false, "render a live engine status line on stderr")
		fs.StringVar(&c.listen, "listen", "", "serve live progress over HTTP on this address (e.g. :0): /progress JSON, /metrics Prometheus text, /debug/sweep and /debug/bpred dashboards, /healthz, /debug/pprof")
	}
	if groups&RecorderFlags != 0 {
		fs.StringVar(&c.sweepTrace, "sweep-trace", "", "record the engine flight recording (one span per unit lifecycle phase) and write it as a "+trace.SweepSchema+" JSON artifact to this file")
		fs.StringVar(&c.sweepChrome, "sweep-chrome", "", "record the engine flight recording and write it as a Chrome trace_event timeline (one track per worker; open in chrome://tracing or ui.perfetto.dev) to this file")
	}
	if groups&ProfileFlags != 0 {
		fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to a file")
		fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to a file on exit")
	}
	return c
}

// Bpred registers -bpred-report and -bpred-csv with the command's own
// usage texts, since what they print and write differs per command.
func (c *Command) Bpred(reportUsage, csvUsage string) {
	c.Flags.BoolVar(&c.BpredReport, "bpred-report", false, reportUsage)
	c.Flags.StringVar(&c.BpredCSV, "bpred-csv", "", csvUsage)
}

// Probe reports whether either predictor-observatory flag is set.
func (c *Command) Probe() bool { return c.BpredReport || c.BpredCSV != "" }

// Recording reports whether -sweep-trace or -sweep-chrome is set.
func (c *Command) Recording() bool { return c.sweepTrace != "" || c.sweepChrome != "" }

// Parse parses args; a malformed command line (already reported with
// the usage text) comes back as ErrUsage, -h as flag.ErrHelp.
func (c *Command) Parse(args []string) error {
	err := c.Flags.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return fmt.Errorf("%w: %v", ErrUsage, err)
	}
	return err
}

// Usagef reports a command-line mistake and the usage text.
func (c *Command) Usagef(format string, a ...any) error {
	c.Log.Printf(format, a...)
	c.Flags.Usage()
	return ErrUsage
}

// CheckWidth rejects an issue width below 1 as a usage error: the
// scheduler and the machine model need at least one issue slot.
func (c *Command) CheckWidth(w int) error {
	if w < 1 {
		return c.Usagef("-width must be at least 1, got %d", w)
	}
	return nil
}

// Start acts on the parsed flags: CPU profile, run cache (one
// that cannot be opened only disables caching), monitor server and
// status line, flight recorder. Close releases them, also after a
// failed Start.
func (c *Command) Start() error {
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		c.cpuFile = f
	}
	if !c.noCache && c.cacheDir != "" {
		cache, err := engine.Open(c.cacheDir)
		if err != nil {
			c.Log.Printf("warning: run cache disabled: %v", err)
		} else {
			c.Cache = cache
		}
	}
	if c.progress || c.listen != "" {
		c.Monitor = engine.NewMonitor()
	}
	if c.listen != "" {
		addr, closeServer, err := c.Monitor.Serve(c.listen)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		c.closeServer = closeServer
		c.Log.Printf("monitor listening on http://%s (/progress, /metrics, /debug/sweep, /debug/bpred, /healthz, /debug/pprof)", addr)
	}
	if c.progress {
		c.stopStatus = sync.OnceFunc(c.Monitor.StartStatus(c.Stderr, 0))
	}
	if c.Recording() {
		c.Recorder = engine.NewSweepRecorder()
	}
	return nil
}

// Options copies the shared settings into o: the engine's (with
// EngineFlags, EngineStats too) and Probe.
func (c *Command) Options(o *harness.Options) {
	if c.groups&EngineFlags != 0 && c.EngineStats == nil {
		c.EngineStats = &harness.EngineStats{}
	}
	o.Jobs = c.jobs
	o.Cache, o.Monitor, o.Recorder = c.Cache, c.Monitor, c.Recorder
	o.EngineStats, o.Probe = c.EngineStats, c.Probe()
}

// EngineConfig is Options for a command that calls engine.Run itself.
func (c *Command) EngineConfig() engine.Config {
	return engine.Config{Jobs: c.jobs, Cache: c.Cache, Monitor: c.Monitor, Recorder: c.Recorder}
}

// Finish ends the engine phase: it stops the status line, writes the
// flight recording (nil without one) and logs the EngineStats summary.
func (c *Command) Finish() (*trace.SweepReport, error) {
	c.stopStatus()
	sweep, err := harness.WriteSweepArtifacts(c.Recorder, c.sweepTrace, c.sweepChrome, c.Cache)
	if err != nil {
		return nil, err
	}
	if c.sweepTrace != "" {
		c.Log.Printf("wrote %s", c.sweepTrace)
	}
	if c.sweepChrome != "" {
		c.Log.Printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)", c.sweepChrome)
	}
	if c.EngineStats != nil {
		c.Log.Printf("engine: %s", c.EngineStats.Summary())
	}
	return sweep, nil
}

// Close stops the status line, the monitor's server and the CPU profile,
// and writes the heap profile.
func (c *Command) Close() error {
	c.stopStatus()
	if c.closeServer != nil {
		_ = c.closeServer() // the command's output is complete; nothing to report
	}
	var err error
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		err = c.cpuFile.Close()
	}
	if c.memProfile != "" {
		err = errors.Join(err, c.WriteFile(c.memProfile, func(w io.Writer) error {
			runtime.GC() // settle the heap so the profile shows live data
			return pprof.WriteHeapProfile(w)
		}))
	}
	return err
}

// WriteFile creates path, fills it with write, closes it and logs it.
func (c *Command) WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	c.Log.Printf("wrote %s", path)
	return nil
}

// WriteReport writes rep to path with its engine section taken from
// EngineStats and its sweep section from the flight recorder.
func (c *Command) WriteReport(path string, rep *trace.Report) error {
	rep.Engine = c.EngineStats.Report()
	if c.Recorder != nil {
		rep.Sweep = c.Recorder.Report()
	}
	return c.WriteFile(path, rep.Write)
}

// WriteCSV is WriteFile for a CSV writer that returns its row count.
func (c *Command) WriteCSV(path string, write func(io.Writer) (int, error)) error {
	return c.WriteFile(path, func(w io.Writer) error { _, err := write(w); return err })
}

// WriteAttrCSV writes d as PREFIX.cpistack.csv and PREFIX.branches.csv.
func (c *Command) WriteAttrCSV(prefix string, d *harness.AttrDiff) error {
	if err := c.WriteCSV(prefix+".cpistack.csv", func(w io.Writer) (int, error) { return harness.WriteCPIStackCSV(w, d) }); err != nil {
		return err
	}
	return c.WriteCSV(prefix+".branches.csv", func(w io.Writer) (int, error) { return harness.WriteBranchDeltaCSV(w, d) })
}

// WriteBpred renders the predictor observatory of rs. With
// -bpred-report it prints heading, unless empty, and each benchmark's
// studies (topN branches) on its first REF input, at width 4 if it ran
// there; with -bpred-csv it writes every probed run's per-branch classes.
func (c *Command) WriteBpred(heading string, topN int, rs []*harness.BenchResult) error {
	if c.BpredReport {
		if heading != "" {
			fmt.Fprintln(c.Stdout, heading)
		}
		for _, r := range rs {
			wr := r.Inputs[0].Runs[0]
			for _, cand := range r.Inputs[0].Runs {
				if cand.Width == 4 {
					wr = cand
				}
			}
			if wr.Base.Bpred == nil || wr.Exp.Bpred == nil {
				continue
			}
			fmt.Fprintln(c.Stdout)
			harness.WriteBpredStudy(c.Stdout, fmt.Sprintf("%s/base w%d", r.Config.Name, wr.Width), wr.Base.Bpred, topN)
			harness.WriteBpredStudy(c.Stdout, fmt.Sprintf("%s/exp w%d", r.Config.Name, wr.Width), wr.Exp.Bpred, topN)
		}
	}
	if c.BpredCSV == "" {
		return nil
	}
	return c.WriteCSV(c.BpredCSV, func(w io.Writer) (int, error) { return harness.WriteBpredCSV(w, rs) })
}
