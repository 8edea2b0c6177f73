package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"vanguard/internal/pipeline"
)

func TestDigestRoundTripAndCompare(t *testing.T) {
	st := &pipeline.Stats{Cycles: 10, Committed: 9, Issued: 11, BrMispredicts: 2, ResMispredicts: 1, Flushes: 3, ICacheMisses: 4}
	want := []record{statsRecord("int2006/gcc/seed=202,iters=1000/w4/exp", st), icacheRecord("gcc", 1.25, 0.5)}
	if want[0].val != "cycles=10 committed=9 issued=11 br_mispredicts=2 res_mispredicts=1 flushes=3 icache_misses=4" {
		t.Fatalf("stats record %q", want[0].val)
	}
	var buf bytes.Buffer
	if err := writeDigest(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := readDigest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bad := compareDigest(want, got); len(bad) != 0 {
		t.Fatalf("round trip: %v", bad)
	}

	changed := *st
	changed.Flushes++
	got = []record{statsRecord(want[0].key, &changed), {key: "icache/mcf", val: want[1].val}}
	bad := compareDigest(want, got)
	if len(bad) != 3 ||
		!strings.Contains(bad[0], "icache/gcc: missing") ||
		!strings.Contains(bad[1], "icache/mcf: unexpected") ||
		!strings.Contains(bad[2], "flushes=4") {
		t.Errorf("compare = %q; want a missing, an unexpected and a changed unit", bad)
	}

	if _, err := readDigest(strings.NewReader("no-statistics\n")); err == nil {
		t.Error("malformed line: want an error")
	}
}

// The pinned digests must cover exactly the simulation units (and I-cache
// study rows) the workloads deliver at the default seed.
func TestPinnedDigestsMatchPlans(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("perfbench")
	for _, w := range workloads {
		recs, err := loadDigest(w.digest)
		if err != nil {
			t.Fatal(err)
		}
		o := options(w, 0)
		want := 0
		for _, c := range plan(w) {
			if c.kind == "icache" {
				want += len(c.jobs(o)) / 2 // one row per benchmark
			} else {
				want += c.units(o) - len(c.jobs(o)) // all but the build units
			}
		}
		if len(recs) != want {
			t.Errorf("%s: %d pinned records, want %d", w.name, len(recs), want)
		}
		seen := map[string]bool{}
		for _, r := range recs {
			if seen[r.key] {
				t.Errorf("%s: duplicate record %s", w.name, r.key)
			}
			seen[r.key] = true
		}
	}
}
