package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"vanguard/internal/bpred"
	"vanguard/internal/cache"
	"vanguard/internal/engine"
	"vanguard/internal/trace"
	"vanguard/internal/workload"
)

// reportBytes renders a JSON report with the engine section stripped —
// everything that is allowed to vary between runs lives there.
func reportBytes(t *testing.T, rs []*BenchResult) []byte {
	t.Helper()
	rep := JSONReport("test", rs)
	rep.Engine = nil
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJobsDifferential: the same suite run serially and on eight workers
// must produce byte-identical reports (modulo the engine section). This is
// the determinism guarantee the engine's ordered aggregation provides; it
// runs under -race in `make check`, doubling as the concurrency audit of
// the shared build artifacts.
func TestJobsDifferential(t *testing.T) {
	cs := []workload.Config{}
	for _, name := range []string{"h264ref", "milc", "gobmk"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		cs = append(cs, c)
	}

	o1 := fastOptions()
	o1.Jobs = 1
	es1 := &EngineStats{}
	o1.EngineStats = es1
	r1, err := RunBenchmarks(cs, o1)
	if err != nil {
		t.Fatal(err)
	}

	o8 := fastOptions()
	o8.Jobs = 8
	es8 := &EngineStats{}
	o8.EngineStats = es8
	r8, err := RunBenchmarks(cs, o8)
	if err != nil {
		t.Fatal(err)
	}

	b1, b8 := reportBytes(t, r1), reportBytes(t, r8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("-jobs=1 and -jobs=8 reports differ:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", b1, b8)
	}

	// The engine section still records what actually happened.
	rep1, rep8 := es1.Report(), es8.Report()
	if rep1.Jobs != 1 {
		t.Errorf("jobs=1 run reported %d workers", rep1.Jobs)
	}
	if rep8.Jobs < 2 {
		t.Errorf("jobs=8 run reported %d workers, want >= 2", rep8.Jobs)
	}
	if rep1.Units != rep8.Units {
		t.Errorf("unit counts differ: %d vs %d", rep1.Units, rep8.Units)
	}
	if len(rep1.UnitWall) != rep1.Units {
		t.Errorf("unit wall list has %d entries, want %d", len(rep1.UnitWall), rep1.Units)
	}
	for i := range rep1.UnitWall {
		if rep1.UnitWall[i].Label != rep8.UnitWall[i].Label {
			t.Fatalf("unit %d labels differ across jobs counts: %q vs %q",
				i, rep1.UnitWall[i].Label, rep8.UnitWall[i].Label)
		}
	}
}

// TestJobs1RepeatDifferential: two independent serial runs of the -fast
// suite must produce byte-identical reports (modulo the engine section).
// Together with the committed results/ baselines — which were generated by
// the pre-rewrite core and are enforced by `make results` — this pins the
// optimized simulator to the seed semantics: any timing or stats change in
// the core shows up as a diff in one gate or the other.
func TestJobs1RepeatDifferential(t *testing.T) {
	cs := []workload.Config{}
	for _, name := range []string{"perlbench", "lbm"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		cs = append(cs, c)
	}

	run := func() []byte {
		o := fastOptions()
		o.Jobs = 1
		rs, err := RunBenchmarks(cs, o)
		if err != nil {
			t.Fatal(err)
		}
		return reportBytes(t, rs)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated -jobs=1 runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestWarmCache: a second run over a shared cache directory serves every
// unit — build summaries included — from the cache, computes nothing and
// produces a byte-identical report. A damaged build-summary entry is
// recomputed, never served.
func TestWarmCache(t *testing.T) {
	cache, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := workload.ByName("libquantum")

	run := func() ([]*BenchResult, *trace.EngineReport) {
		o := fastOptions()
		o.Cache = cache
		es := &EngineStats{}
		o.EngineStats = es
		rs, err := RunBenchmarks([]workload.Config{c}, o)
		if err != nil {
			t.Fatal(err)
		}
		return rs, es.Report()
	}
	builds := func(rep *trace.EngineReport) (units, hits int) {
		for _, u := range rep.UnitWall {
			if strings.HasSuffix(u.Label, "/build") {
				units++
				if u.CacheHit {
					hits++
				}
			}
		}
		return units, hits
	}

	cold, coldRep := run()
	if coldRep.CacheHits != 0 {
		t.Fatalf("cold run reported %d hits", coldRep.CacheHits)
	}
	if coldRep.CacheMisses != coldRep.Units {
		t.Fatalf("cold run stored %d of %d units in the cache", coldRep.CacheMisses, coldRep.Units)
	}
	coldBytes := reportBytes(t, cold)

	warm, warmRep := run()
	if warmRep.CacheHits != coldRep.CacheMisses {
		t.Errorf("warm hits %d != cold misses %d", warmRep.CacheHits, coldRep.CacheMisses)
	}
	if warmRep.CacheMisses != 0 {
		t.Errorf("warm run still missed %d units", warmRep.CacheMisses)
	}
	if n, hits := builds(warmRep); n != 1 || hits != 1 {
		t.Errorf("warm run served %d of %d build units from the cache, want 1 of 1", hits, n)
	}
	if !bytes.Equal(coldBytes, reportBytes(t, warm)) {
		t.Error("cached results differ from computed results")
	}

	t.Run("corrupt-build-entry", func(t *testing.T) {
		key := newBenchJob(c, fastOptions()).buildKey()
		path := filepath.Join(cache.Dir(), key[:2], key+".entry")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip the last digit of the transform report's StaticBefore,
		// which the JSON report prints: a served entry would show.
		loc := regexp.MustCompile(`"StaticBefore":[0-9]+`).FindIndex(b)
		if loc == nil {
			t.Fatalf("build entry holds no StaticBefore to flip:\n%s", b)
		}
		d := loc[1] - 1
		b[d] = '0' + (b[d]-'0'+1)%10
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}

		rs, rep := run()
		if rep.CacheMisses != 1 || rep.CacheHits != coldRep.Units-1 {
			t.Errorf("damaged build entry: %d hits, %d misses, want %d and 1 (only the build recomputed)",
				rep.CacheHits, rep.CacheMisses, coldRep.Units-1)
		}
		if n, hits := builds(rep); n != 1 || hits != 0 {
			t.Errorf("damaged build entry served: %d of %d build units hit", hits, n)
		}
		if !bytes.Equal(coldBytes, reportBytes(t, rs)) {
			t.Error("report after recomputing the damaged build entry differs from the cold one")
		}
		if _, ok := cache.Get(key); !ok {
			t.Error("recompute did not repair the damaged build entry")
		}
	})
}

// TestAnonymousPredictorBypassesCache: a NewPredictor closure without a
// PredictorName cannot be hashed into a key, so those runs — builds and
// simulations alike — must never be served from (or stored in) the cache.
func TestAnonymousPredictorBypassesCache(t *testing.T) {
	c, _ := workload.ByName("libquantum")
	o := fastOptions()
	o.NewPredictor = func() bpred.DirPredictor { return bpred.NewDefault() }
	o.PredictorName = ""
	in := o.RefInputs[0]
	if key := newBenchJob(c, o).simKey(in, 4, "base"); key != "" {
		t.Errorf("anonymous predictor produced cache key %q", key)
	}
	if key := newBenchJob(c, o).buildKey(); key != "" {
		t.Errorf("anonymous predictor produced build key %q", key)
	}
	o.PredictorName = "default"
	if key := newBenchJob(c, o).simKey(in, 4, "base"); key == "" {
		t.Error("named predictor must produce a cache key")
	}
	if key := newBenchJob(c, o).buildKey(); key == "" {
		t.Error("named predictor must produce a build key")
	}
	// Distinct predictors must never alias.
	o.PredictorName = "gshare-64k"
	if newBenchJob(c, o).simKey(in, 4, "base") ==
		func() string { o.PredictorName = "default"; return newBenchJob(c, o).simKey(in, 4, "base") }() {
		t.Error("different predictor names produced the same key")
	}
}

// TestSuiteCache: repeated Suite calls reuse the first result set.
func TestSuiteCache(t *testing.T) {
	sc := NewSuiteCache(fastOptions())
	a, err := sc.Suite("fp2000")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Suite("fp2000")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("suite sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("suite cache returned fresh results on the second call")
		}
	}
}

// TestFastOptions: the shared -fast block matches what the CLIs relied on
// before it was deduplicated.
func TestFastOptions(t *testing.T) {
	o := FastOptions()
	if o.TrainInput.Iters >= DefaultOptions().TrainInput.Iters {
		t.Error("FastOptions must shrink the train input")
	}
	if len(o.RefInputs) != 2 {
		t.Errorf("FastOptions has %d ref inputs, want 2", len(o.RefInputs))
	}
	if len(o.Widths) == 0 {
		t.Error("FastOptions must keep the width sweep")
	}
}

// hierarchyBytes is the tag and LRU-stamp storage of one cache hierarchy
// under cfg: each way of each level holds one uint64 tag and one uint64
// stamp (cache.New sizes both slices by SizeBytes/LineBytes).
func hierarchyBytes(cfg cache.HierConfig) uint64 {
	var n uint64
	for _, c := range []cache.Config{cfg.L1I, cfg.L1D, cfg.L2, cfg.L3} {
		n += uint64(c.SizeBytes/c.LineBytes) * 2 * 8
	}
	return n
}

// TestResultsDoNotRetainMachines runs a job set and keeps its results:
// what stays live after a collection must be well under one Table 1 cache
// hierarchy per kept Stats, i.e. the results must not pin the machines
// (hierarchy, memory clone, predictor tables) that produced them.
func TestResultsDoNotRetainMachines(t *testing.T) {
	c, ok := workload.ByName("libquantum")
	if !ok {
		t.Fatal("missing benchmark")
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	r, err := RunBenchmark(c, FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - int64(before)

	kept := 0
	for _, in := range r.Inputs {
		kept += 2 * len(in.Runs)
	}
	if kept < 12 {
		t.Fatalf("job set kept %d results, want at least 12", kept)
	}
	bound := int64(kept) * int64(hierarchyBytes(cache.DefaultHierConfig())) / 4
	t.Logf("%d results retain %d KB (bound %d KB)", kept, retained>>10, bound>>10)
	if retained > bound {
		t.Errorf("%d kept results retain %d KB after GC, want under %d KB (a quarter of one cache hierarchy each): results pin their machines",
			kept, retained>>10, bound>>10)
	}
	runtime.KeepAlive(r)
}
