package main

import (
	"context"
	"testing"

	"vanguard/internal/engine"
	"vanguard/internal/harness"
	"vanguard/internal/workload"
)

// The replay must deliver the harness' statistics unit for unit, cold and
// from its own run cache, with spans that conserve worker time.
func TestReplayMatchesHarness(t *testing.T) {
	o := harness.FastOptions()
	o.Jobs = 2
	o.Widths = []int{2}
	o.RefInputs = []workload.Input{{Seed: 7, Iters: 200}, {Seed: 8, Iters: 200}, {Seed: 9, Iters: 200}}
	calls := []call{{kind: "bench", arg: sweepBench}}

	hc, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = hc
	h := runPlan(calls, o)
	if h.failed != 0 || len(h.records) != 6 {
		t.Fatalf("harness: %d failed, %d records: %v", h.failed, len(h.records), h.errs)
	}

	rc, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		r := newReplay(rc)
		rp := replayPlan(context.Background(), r, calls, o)
		if rp.failed != 0 {
			t.Fatalf("%s replay: %v", pass, rp.errs)
		}
		if bad := compareDigest(h.records, rp.records); len(bad) != 0 {
			t.Errorf("%s replay differs from the harness: %v", pass, bad)
		}
		spans := flatten(r.tasks)
		if _, _, _, err := conservation(spans, selfTimes(spans), r.runs); err != nil {
			t.Errorf("%s replay: %v", pass, err)
		}
		m := layerMetrics(r, spans, layerTotals(spans, selfTimes(spans)), traceFigures{})
		hits := m["engine.cache.hit_ratio"].Value
		sims := m["pipeline.machines"].Value
		if pass == "cold" && (hits != 0 || sims != 6 || m["sched.program_s"].Value <= 0) {
			t.Errorf("cold replay: hit ratio %v, %v machines, sched %v s", hits, sims, m["sched.program_s"].Value)
		}
		if pass == "warm" && (hits != 1 || sims != 0) {
			t.Errorf("warm replay: hit ratio %v, %v machines; want every simulation served", hits, sims)
		}
		if m["engine.units"].Value != 7 {
			t.Errorf("%s replay: %v units, want 7", pass, m["engine.units"].Value)
		}
	}
}
