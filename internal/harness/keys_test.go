package harness

import (
	"reflect"
	"testing"

	"vanguard/internal/pipeline"
	"vanguard/internal/workload"
)

// mustBench resolves a benchmark by name or fails the test.
func mustBench(t *testing.T, name string) workload.Config {
	t.Helper()
	c, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %s", name)
	}
	return c
}

// fieldNames returns the set of v's struct field names.
func fieldNames(v any) map[string]bool {
	t := reflect.TypeOf(v)
	names := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		names[t.Field(i).Name] = true
	}
	return names
}

// TestRunCacheKeyCoversOptions is the run-cache key audit: every field of
// harness.Options and pipeline.Config must be classified — either pure
// execution/observability policy that provably cannot change simulated
// Stats, or result-bearing material threaded into simKeyMaterial (and,
// when BuildBinaries reads it, into buildKeyMaterial). A new
// field in either struct fails here until it is added to exactly one of
// the maps below, so a result-affecting option can never silently alias
// cache entries produced under a different value.
func TestRunCacheKeyCoversOptions(t *testing.T) {
	keyFields := fieldNames(simKeyMaterial{})

	// optionsKey maps each result-bearing Options field to the
	// simKeyMaterial field that carries it. Widths/RefInputs fan out to
	// per-unit Width/Input values; NewPredictor is keyed through
	// PredictorName (anonymous predictors bypass the cache entirely —
	// TestAnonymousPredictorBypassesCache pins that).
	optionsKey := map[string]string{
		"Widths":        "Width",
		"TrainInput":    "Train",
		"RefInputs":     "Input",
		"NewPredictor":  "Predictor",
		"PredictorName": "Predictor",
		"ICacheBytes":   "ICacheBytes",
		"DBBEntries":    "DBBEntries",
		"Core":          "Core",
		"Spec":          "Spec",
		"SampleWindow":  "SampleWindow",
		"Attr":          "Attr",
		"Probe":         "Probe",
		"PipeviewBench": "Pipeview",
	}
	// optionsPolicy lists the fields that steer execution or observation
	// but cannot change any simulated result: Verify only cross-checks,
	// Jobs/Cache/EngineStats are scheduling policy (the jobs
	// differential proves byte-identity), Monitor and Recorder only
	// watch, and the deprecated Dispatch is read by nothing.
	optionsPolicy := map[string]bool{
		"Verify": true, "Jobs": true, "Cache": true, "EngineStats": true,
		"Monitor": true, "Recorder": true, "Dispatch": true,
	}
	// buildKey maps each Options field BuildBinaries can read to the
	// buildKeyMaterial field that carries it; every other keyed field is
	// simulation-only and must stay out of the build key, so jobs that
	// differ only in what they simulate share one build entry.
	buildKey := map[string]string{
		"TrainInput":    "Train",
		"NewPredictor":  "Predictor",
		"PredictorName": "Predictor",
		"Core":          "Core",
		"Spec":          "Spec",
	}
	buildFields := fieldNames(buildKeyMaterial{})
	claimed := map[string]bool{"Config": true} // the job's workload, not an Options field
	for name, keyed := range buildKey {
		if _, ok := optionsKey[name]; !ok {
			t.Errorf("Options.%s is build key material but not simulation key material", name)
		}
		if !buildFields[keyed] {
			t.Errorf("Options.%s claims key field buildKeyMaterial.%s, which does not exist", name, keyed)
		}
		claimed[keyed] = true
	}
	for f := range buildFields {
		if !claimed[f] {
			t.Errorf("buildKeyMaterial.%s is claimed by no Options field BuildBinaries reads", f)
		}
	}
	for name, keyed := range optionsKey {
		if _, ok := buildKey[name]; !ok && buildFields[keyed] {
			t.Errorf("simulation-only Options.%s reaches buildKeyMaterial.%s: jobs that differ only in what they simulate would stop sharing a build", name, keyed)
		}
	}

	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		keyed, isKeyed := optionsKey[name]
		switch {
		case optionsPolicy[name] && isKeyed:
			t.Errorf("Options.%s is classified as both policy and key material", name)
		case optionsPolicy[name]:
		case !isKeyed:
			t.Errorf("Options.%s is unclassified: thread it into simKeyMaterial (and this test's optionsKey map) if it can change simulated results, or add it to optionsPolicy if it provably cannot", name)
		case !keyFields[keyed]:
			t.Errorf("Options.%s claims key field simKeyMaterial.%s, which does not exist", name, keyed)
		}
	}

	// configKey maps each pipeline.Config field the harness sets to its
	// key material; configFixed lists the fields machineConfig leaves at
	// DefaultConfig (no Options field can reach them, so they are covered
	// by harnessVersion — changing a default is a recipe change and must
	// bump it), plus the deprecated Dispatch, which nothing reads.
	configKey := map[string]string{
		"Width":        "Width",
		"Hier":         "ICacheBytes",
		"NewPredictor": "Predictor",
		"DBBEntries":   "DBBEntries",
		"SampleWindow": "SampleWindow",
		"Attr":         "Attr",
		"Probe":        "Probe",
		"Pipeview":     "Pipeview",
	}
	configFixed := map[string]bool{
		"FrontEndDepth": true, "FetchBufEntries": true,
		"IntUnits": true, "MemUnits": true, "FPUnits": true,
		"BTBLogEntries": true, "RASEntries": true,
		"ExceptionEveryN": true, "DBBInvalidateOnException": true,
		"MaxInstrs": true, "MaxCycles": true, "Dispatch": true,
	}
	ct := reflect.TypeOf(pipeline.Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.PkgPath != "" {
			continue // unexported: the harness cannot set it
		}
		keyed, isKeyed := configKey[f.Name]
		switch {
		case configFixed[f.Name] && isKeyed:
			t.Errorf("pipeline.Config.%s is classified as both fixed and key material", f.Name)
		case configFixed[f.Name]:
		case !isKeyed:
			t.Errorf("pipeline.Config.%s is unclassified: map it to simKeyMaterial (and this test's configKey map) if machineConfig sets it, or add it to configFixed if the harness always leaves the default", f.Name)
		case !keyFields[keyed]:
			t.Errorf("pipeline.Config.%s claims key field simKeyMaterial.%s, which does not exist", f.Name, keyed)
		}
	}
}

// TestSimKeySeparatesProbe pins the aliasing contract the v6 bump exists
// for: identical simulations with and without the probe must produce
// different run-cache keys, and the key must change across every other
// key-material axis simKeyMaterial names.
func TestSimKeySeparatesProbe(t *testing.T) {
	o := fastOptions()
	j := newBenchJob(mustBench(t, "mcf"), o)
	base := j.simKey(o.RefInputs[0], 4, "base")
	if base == "" {
		t.Fatal("cacheable unit produced no key")
	}

	probed := o
	probed.Probe = true
	jp := newBenchJob(mustBench(t, "mcf"), probed)
	if k := jp.simKey(o.RefInputs[0], 4, "base"); k == base {
		t.Error("probed and plain simulations share a run-cache key")
	}
	if k := j.simKey(o.RefInputs[0], 2, "base"); k == base {
		t.Error("widths share a run-cache key")
	}
	if k := j.simKey(o.RefInputs[0], 4, "exp"); k == base {
		t.Error("binaries share a run-cache key")
	}
}

// TestBuildKeySharing pins what the build key covers: the I-cache study's
// 32 KB and 24 KB jobs share the build entries of the suite run beside
// them, while every input BuildBinaries reads separates the key.
func TestBuildKeySharing(t *testing.T) {
	o := FastOptions()
	cs := workload.Suite("int2006")
	study := icacheJobs(cs, o)
	if len(study) != 2*len(cs) {
		t.Fatalf("icache study enumerates %d jobs for %d benchmarks", len(study), len(cs))
	}
	for i, c := range cs {
		want := newBenchJob(c, o).buildKey()
		if want == "" {
			t.Fatalf("%s: cacheable build produced no key", c.Name)
		}
		big, small := study[2*i], study[2*i+1]
		if big.buildKey() != want || small.buildKey() != want {
			t.Errorf("%s: icache jobs' build keys differ from the suite's", c.Name)
		}
		in := o.RefInputs[0]
		if big.simKey(in, 4, "base") == small.simKey(in, 4, "base") {
			t.Errorf("%s: 32 KB and 24 KB simulations share a key", c.Name)
		}
	}

	c := mustBench(t, "mcf")
	base := newBenchJob(c, o).buildKey()
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"TrainInput", func(o *Options) { o.TrainInput.Seed++ }},
		{"Core", func(o *Options) { o.Core.MaxHoist++ }},
		{"Spec", func(o *Options) { o.Spec.BiasThreshold = 0.9 }},
		{"PredictorName", func(o *Options) { o.PredictorName = "gshare-64k" }},
	} {
		e := o
		tc.edit(&e)
		if newBenchJob(c, e).buildKey() == base {
			t.Errorf("changing %s leaves the build key unchanged", tc.name)
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"DBBEntries", func(o *Options) { o.DBBEntries = 4 }},
		{"SampleWindow", func(o *Options) { o.SampleWindow = 1000 }},
		{"Attr", func(o *Options) { o.Attr = true }},
		{"Probe", func(o *Options) { o.Probe = true }},
		{"PipeviewBench", func(o *Options) { o.PipeviewBench = c.Name }},
	} {
		e := o
		tc.edit(&e)
		if newBenchJob(c, e).buildKey() != base {
			t.Errorf("simulation-only %s changes the build key", tc.name)
		}
	}
}
