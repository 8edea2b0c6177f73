package pipeline_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vanguard/internal/harness"
	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeline"
	"vanguard/internal/pipeview"
	"vanguard/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.txt from the current simulator")

const goldenPath = "testdata/golden_stats.txt"

// goldenWorkloads span the simulator's cycle shapes: a memory-bound
// config (an 8 MB working set, so most cycles wait on a memory miss), a
// stall-light one, and an I-cache-heavy one (the most replicated code,
// run in Section 6.1's 24 KB L1-I).
var goldenWorkloads = []struct {
	name        string
	icacheBytes int
}{
	{"mcf", 0},
	{"hmmer", 0},
	{"gcc", 24 << 10},
}

// goldenIters is the REF iteration count of every case, and goldenSeeds
// its REF seeds: one Machine.Run each, and together the lanes of one
// LaneGroup run (the lanes share the patched image, so the seeds share
// an iteration count).
const goldenIters = 400

var goldenSeeds = []int64{202, 303}

// goldenUnit is one (workload, binary) pair: the patched image plus one
// REF memory per golden seed.
type goldenUnit struct {
	label       string // "<workload> <binary>"
	icacheBytes int    // L1-I capacity override (0 = Table 1)
	im          *ir.Image
	mems        []*mem.Memory
}

func goldenUnits(tb testing.TB) []goldenUnit {
	tb.Helper()
	var out []goldenUnit
	for _, gw := range goldenWorkloads {
		c, ok := workload.ByName(gw.name)
		if !ok {
			tb.Fatalf("no workload %q", gw.name)
		}
		o := harness.FastOptions()
		o.Verify = false
		base, exp, _, _, err := harness.BuildBinaries(c, o)
		if err != nil {
			tb.Fatal(err)
		}
		for _, bin := range []struct {
			name string
			p    *ir.Program
		}{{"base", base}, {"exp", exp}} {
			u := goldenUnit{label: gw.name + " " + bin.name, icacheBytes: gw.icacheBytes,
				im: c.PatchIters(ir.MustLinearize(bin.p), goldenIters)}
			for _, seed := range goldenSeeds {
				_, m := c.Generate(workload.Input{Seed: seed, Iters: goldenIters})
				u.mems = append(u.mems, m)
			}
			out = append(out, u)
		}
	}
	return out
}

// machineConfig mirrors the harness's per-width machine (Table 1 plus the
// L1-I override).
func (u *goldenUnit) machineConfig(width int) pipeline.Config {
	cfg := pipeline.DefaultConfig(width)
	if b := u.icacheBytes; b > 0 {
		def := cfg.Hier.L1I
		sets := def.SizeBytes / def.LineBytes / def.Ways
		cfg.Hier.L1I.SizeBytes = b
		cfg.Hier.L1I.Ways = b / def.LineBytes / sets
	}
	return cfg
}

// statsDigest hashes a run's full Stats JSON plus its error text, so a
// capped run pins the error message as well as the counters.
func statsDigest(tb testing.TB, st *pipeline.Stats, err error) string {
	tb.Helper()
	buf, merr := json.Marshal(st)
	if merr != nil {
		tb.Fatalf("marshal stats: %v", merr)
	}
	if err != nil {
		buf = append(buf, "\nerror: "+err.Error()...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// stallCap returns a cycle cap that lands inside a long zero-issue stretch
// of the unit's first REF run at width 4: the midpoint of the first
// 64-cycle sample window past warm-up in which nothing issued.
func stallCap(tb testing.TB, u *goldenUnit, cfg pipeline.Config) int64 {
	tb.Helper()
	cfg.SampleWindow = 64
	st, err := pipeline.New(u.im, u.mems[0].Clone(), cfg).Run()
	if err != nil {
		tb.Fatal(err)
	}
	for _, w := range st.Samples.Windows {
		if w.Start >= 1000 && w.Issued == 0 {
			return w.Start + w.Cycles()/2
		}
	}
	return 0
}

// goldenVariant is one observer/cap setting applied on top of the
// machine config.
type goldenVariant struct {
	name   string
	widths []int
	apply  func(tb testing.TB, u *goldenUnit, cfg *pipeline.Config) bool
}

var goldenVariants = []goldenVariant{
	{"plain", []int{2, 4, 8}, func(testing.TB, *goldenUnit, *pipeline.Config) bool { return true }},
	{"attr", []int{2, 8}, func(_ testing.TB, _ *goldenUnit, cfg *pipeline.Config) bool {
		cfg.Attr = true
		return true
	}},
	// A 97-cycle window is shorter than a memory miss, so on the
	// memory-bound config many windows open and close inside one stall.
	{"sample97+attr", []int{4}, func(_ testing.TB, _ *goldenUnit, cfg *pipeline.Config) bool {
		cfg.SampleWindow, cfg.Attr = 97, true
		return true
	}},
	{"sample1000", []int{2}, func(_ testing.TB, _ *goldenUnit, cfg *pipeline.Config) bool {
		cfg.SampleWindow = 1000
		return true
	}},
	{"probe", []int{4}, func(_ testing.TB, _ *goldenUnit, cfg *pipeline.Config) bool {
		cfg.Probe = true
		return true
	}},
	{"pipeview", []int{4}, func(_ testing.TB, _ *goldenUnit, cfg *pipeline.Config) bool {
		pv := pipeview.DefaultConfig()
		cfg.Pipeview = &pv
		return true
	}},
	{"exception", []int{4}, func(_ testing.TB, _ *goldenUnit, cfg *pipeline.Config) bool {
		cfg.ExceptionEveryN, cfg.DBBInvalidateOnException, cfg.Attr = 1500, true, true
		return true
	}},
	{"maxinstrs", []int{4}, func(_ testing.TB, _ *goldenUnit, cfg *pipeline.Config) bool {
		cfg.MaxInstrs = 7777
		return true
	}},
	// Only units with a zero-issue stretch long enough to hold a cap.
	{"stallcap", []int{4}, func(tb testing.TB, u *goldenUnit, cfg *pipeline.Config) bool {
		c := stallCap(tb, u, *cfg)
		cfg.MaxCycles, cfg.Attr = c, true
		return c > 0
	}},
}

// statsDigests runs every golden case through both Machine.Run (once per
// REF input) and one LaneGroup holding all REF inputs, fails on any
// scalar/lane mismatch or on a first-input mismatch against per-cycle
// stepping (the fast-forward's differential oracle), and returns "<workload> <binary> w<width>
// <variant> s<seed>" → digest.
func statsDigests(tb testing.TB) (keys []string, sums map[string]string) {
	sums = map[string]string{}
	for _, u := range goldenUnits(tb) {
		for _, v := range goldenVariants {
			for _, w := range v.widths {
				cfg := u.machineConfig(w)
				if !v.apply(tb, &u, &cfg) {
					continue
				}
				scalar := make([]string, len(u.mems))
				for i := range u.mems {
					st, err := pipeline.New(u.im, u.mems[i].Clone(), cfg).Run()
					scalar[i] = statsDigest(tb, st, err)
				}
				stepped := cfg
				pipeline.StepEveryCycle(&stepped)
				st, err := pipeline.New(u.im, u.mems[0].Clone(), stepped).Run()
				if d := statsDigest(tb, st, err); d != scalar[0] {
					tb.Errorf("%s w%d %s: fast-forward digest %s != per-cycle stepping digest %s",
						u.label, w, v.name, scalar[0], d)
				}
				mems := make([]*mem.Memory, len(u.mems))
				for i := range u.mems {
					mems[i] = u.mems[i].Clone()
				}
				stats, errs := pipeline.NewLaneGroup(u.im, mems, cfg).Run()
				for i := range u.mems {
					k := fmt.Sprintf("%s w%d %s s%d", u.label, w, v.name, goldenSeeds[i])
					if lane := statsDigest(tb, stats[i], errs[i]); lane != scalar[i] {
						tb.Errorf("%s: LaneGroup digest %s != Machine.Run digest %s", k, lane, scalar[i])
					}
					keys = append(keys, k)
					sums[k] = scalar[i]
				}
			}
		}
	}
	return keys, sums
}

// TestGoldenStats pins the full Stats of a spread of simulations —
// memory-bound, stall-light and I-cache-heavy configs, base and exp, at
// widths 2/4/8, with every observer and both run caps — through both
// Machine.Run and LaneGroup. A change to the cycle loop that moves a
// single counter, histogram bucket, sample window or attribution slot
// anywhere fails here. After an intentional timing change, regenerate with
//
//	go test ./internal/pipeline -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	keys, sums := statsDigests(t)
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# sha256 of the json.Marshal'd pipeline.Stats (plus the error text of a capped run)\n")
		sb.WriteString("# for golden_test.go's workload x binary x width x observer/cap variant x REF seed.\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, sums[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(keys) {
		t.Errorf("golden file has %d entries, the cases produce %d", len(want), len(keys))
	}
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: no golden digest", k)
		case w != sums[k]:
			t.Errorf("%s: stats digest %s, golden %s", k, sums[k], w)
		}
	}
}
