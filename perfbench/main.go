// Command perfbench is the repository's benchmark. It runs one workload
// through the public harness entry points with tracing off and prints the
// end-to-end metrics, or (-trace 1) replays the workload with a span
// around every layer call and prints the per-layer metrics. Either way
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 835, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.py, which builds
// it first:
//
//	python3 perfbench/run.py --workload paper-fast --seed 0 --seconds 10 --trace 0
//
// Each measured repetition runs in a child process of its own, so its CPU
// time and peak RSS come from the kernel's accounting for that process
// alone. See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vanguard/internal/engine"
)

// runLimit keeps a whole run inside the 180 s a run may take.
const runLimit = 170 * time.Second

// coldSetups is how many times a cold workload's set-up is repeated; the
// median is reported.
const coldSetups = 5

func main() {
	var (
		wName   = flag.String("workload", "", "workload to run: paper-fast, paper-fast-warm or seed-sweep")
		seed    = flag.Int64("seed", 0, "workload seed; 0 reproduces the canonical inputs and checks the pinned digest")
		seconds = flag.Float64("seconds", 10, "measure repetitions until this many seconds have been measured (at least one)")
		traced  = flag.Int("trace", 0, "1: traced replay printing per-layer metrics; 0: untraced end-to-end metrics")
		child   = flag.String("child", "", "run one phase in this process (rep or trace) and print its JSON; used by the parent run")
		dir     = flag.String("cache", "", "run-cache directory of a -child phase")
		pin     = flag.Bool("pin", false, "rewrite the workload's pinned digest from a run at seed 0, then exit")
	)
	flag.Parse()
	w, err := lookupWorkload(*wName)
	if err == nil && (*traced < 0 || *traced > 1) {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err == nil {
		switch {
		case *child == "rep":
			err = emit(repChild(w, *seed, *dir))
		case *child == "trace":
			err = emit(traceChild(w, *seed, *dir))
		case *child != "":
			err = fmt.Errorf("unknown -child %q", *child)
		case *pin:
			err = pinDigest(w)
		default:
			err = orchestrate(w, *seed, *seconds, *traced == 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childResult is what a child phase reports to its parent.
type childResult struct {
	WallS     float64  `json:"wall_s"`
	Committed int64    `json:"committed"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   metrics  `json:"metrics,omitempty"`
}

func emit(r childResult, err error) error {
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// checkDigest compares a run's records with the workload's pinned digest
// when the run used the default seed; on other seeds correctness rests on
// the harness' golden-model check alone. It returns the failed-unit count.
func checkDigest(w workloadSpec, seed int64, recs []record, errs *[]string) (int, error) {
	if seed != 0 {
		return 0, nil
	}
	want, err := loadDigest(w.digest)
	if err != nil {
		return 0, fmt.Errorf("pinned digest: %w", err)
	}
	bad := compareDigest(want, recs)
	for _, b := range bad {
		*errs = append(*errs, "digest: "+b)
	}
	return len(bad), nil
}

// repChild runs the workload once through the harness against the run
// cache in dir and reports its wall time.
func repChild(w workloadSpec, seed int64, dir string) (childResult, error) {
	o := options(w, seed)
	c, err := engine.Open(dir)
	if err != nil {
		return childResult{}, err
	}
	o.Cache = c
	t0 := time.Now()
	rr := runPlan(plan(w), o)
	wall := time.Since(t0)
	res := childResult{WallS: wall.Seconds(), Committed: rr.committed, Attempted: rr.attempted, Failed: rr.failed, Errors: rr.errs}
	bad, err := checkDigest(w, seed, rr.records, &res.Errors)
	if err != nil {
		return childResult{}, err
	}
	res.Failed = min(res.Attempted, res.Failed+bad)
	return res, nil
}

// pinDigest rewrites the workload's pinned digest from a run at seed 0.
func pinDigest(w workloadSpec) error {
	dir, err := os.MkdirTemp(".bench_build", "pin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := options(w, 0)
	if o.Cache, err = engine.Open(dir); err != nil {
		return err
	}
	rr := runPlan(plan(w), o)
	if rr.failed > 0 {
		return fmt.Errorf("run failed: %s", strings.Join(rr.errs, "; "))
	}
	f, err := os.Create(filepath.Join(digestDir, w.digest+".txt"))
	if err != nil {
		return err
	}
	if err := writeDigest(f, rr.records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// proc is one finished child phase with the kernel's accounting for it.
type proc struct {
	childResult
	elapsed time.Duration
	cpu     time.Duration // user + system
	rssMB   float64       // peak resident set
}

func runChild(ctx context.Context, kind string, w workloadSpec, seed int64, dir string) (proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return proc{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", kind, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-cache", dir)
	// A child must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	p := proc{elapsed: time.Since(t0)}
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("%w (run limit %s)", err, runLimit)
		}
		return p, fmt.Errorf("%s child: %w", kind, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &p.childResult); err != nil {
		return p, fmt.Errorf("%s child: bad result: %w", kind, err)
	}
	return p, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func orchestrate(w workloadSpec, seed int64, seconds float64, traced bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	deadline, _ := ctx.Deadline()
	work := filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	if traced {
		p, err := runChild(ctx, "trace", w, seed, work)
		if err != nil {
			return err
		}
		report(os.Stderr, p.Errors)
		return printResult(result{Attempted: p.Attempted, Failed: p.Failed, Metrics: p.Metrics})
	}

	// Set-up: a cold workload generates and validates its inputs (median
	// of coldSetups repetitions); the warm workload primes its run cache
	// with a full cold run, whose checks count like any other run's.
	var res result
	var setup time.Duration
	primed := filepath.Join(work, "primed")
	if w.warm {
		p, err := runChild(ctx, "rep", w, seed, primed)
		if err != nil {
			return err
		}
		setup = p.elapsed
		res.Attempted, res.Failed = p.Attempted, p.Failed
		report(os.Stderr, p.Errors)
	} else {
		var ts []float64
		for i := 0; i < coldSetups; i++ {
			t0 := time.Now()
			if err := prepareInputs(w, seed); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		setup = time.Duration(median(ts) * 1e9)
	}

	var wall, cpu, mips, rss []float64
	measured := 0.0
	for k := 0; k == 0 || measured < seconds; k++ {
		// Stop early rather than overrun the run limit: the next
		// repetition is assumed to take as long as the longest so far.
		if k > 0 && time.Until(deadline) < 2*time.Duration(maxOf(wall)*1e9)+5*time.Second {
			break
		}
		dir := primed
		if !w.warm {
			dir = filepath.Join(work, fmt.Sprintf("rep-%d", k))
		}
		p, err := runChild(ctx, "rep", w, seed, dir)
		if err != nil {
			return err
		}
		if !w.warm {
			os.RemoveAll(dir)
		}
		report(os.Stderr, p.Errors)
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		wall = append(wall, p.WallS)
		cpu = append(cpu, p.cpu.Seconds())
		mips = append(mips, float64(p.Committed)/p.WallS/1e6)
		rss = append(rss, p.rssMB)
		measured += p.WallS
	}
	res.Metrics = endToEnd(wall, cpu, mips, rss, setup)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d: %d repetition(s)\n", w.name, seed, len(wall))
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"wall_s", wall}, {"cpu_s", cpu}, {"sim_mips", mips}, {"peak_rss_mb", rss}} {
		fmt.Fprintf(os.Stderr, "  %-12s median %.4f  q1 %.4f  q3 %.4f  n=%d\n",
			s.name, median(s.xs), quartile(s.xs, 1), quartile(s.xs, 3), len(s.xs))
	}
	fmt.Fprintf(os.Stderr, "  %-12s %.4f  failed %d of %d units\n", "setup_s", setup.Seconds(), res.Failed, res.Attempted)
	return printResult(res)
}

// endToEnd reports the medians over a run's repetitions: host wall time,
// process CPU time (user + system), committed simulated instructions
// delivered per wall second, and peak resident set; plus set-up time.
func endToEnd(wall, cpu, mips, rss []float64, setup time.Duration) metrics {
	m := metrics{}
	m.set("wall_s", median(wall), "s")
	m.set("cpu_s", median(cpu), "s")
	m.set("sim_mips", median(mips), "MIPS")
	m.set("peak_rss_mb", median(rss), "MB")
	m.set("setup_s", setup.Seconds(), "s")
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func printResult(r result) error {
	if r.Attempted < 1 {
		return errors.New("no units attempted")
	}
	r.Correct = r.Failed == 0
	return json.NewEncoder(os.Stdout).Encode(r)
}

// report prints the first few failure messages of a phase.
func report(w *os.File, errs []string) {
	sort.Strings(errs)
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more\n", len(errs)-10)
			break
		}
		fmt.Fprintln(w, "  FAIL", e)
	}
}
