package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vanguard/internal/pipeline"
)

// digestDir holds the pinned per-unit statistics of each workload at the
// default seed, relative to the checkout root.
var digestDir = filepath.Join("perfbench", "digests")

// A record is one unit's simulated-statistics digest: a unit label and
// the statistics a simulator-only change must leave identical.
type record struct{ key, val string }

func statsRecord(label string, st *pipeline.Stats) record {
	return record{key: label, val: fmt.Sprintf(
		"cycles=%d committed=%d issued=%d br_mispredicts=%d res_mispredicts=%d flushes=%d icache_misses=%d",
		st.Cycles, st.Committed, st.Issued, st.BrMispredicts, st.ResMispredicts, st.Flushes, st.ICacheMisses)}
}

// writeDigest writes records one per line, sorted by key.
func writeDigest(w io.Writer, recs []record) error {
	sorted := append([]record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	bw := bufio.NewWriter(w)
	for _, r := range sorted {
		fmt.Fprintf(bw, "%s %s\n", r.key, r.val)
	}
	return bw.Flush()
}

// readDigest parses writeDigest's format.
func readDigest(r io.Reader) ([]record, error) {
	var recs []record
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("line %d: want \"<unit> <statistics>\"", n)
		}
		recs = append(recs, record{k, v})
	}
	return recs, sc.Err()
}

func loadDigest(name string) ([]record, error) {
	f, err := os.Open(filepath.Join(digestDir, name+".txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := readDigest(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	return recs, nil
}

// compareDigest returns one message per unit whose record differs
// between want and got, is missing from got, or is unexpected in got.
func compareDigest(want, got []record) []string {
	g := make(map[string]string, len(got))
	for _, r := range got {
		g[r.key] = r.val
	}
	var bad []string
	seen := make(map[string]bool, len(want))
	for _, r := range want {
		seen[r.key] = true
		v, ok := g[r.key]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: missing", r.key))
		case v != r.val:
			bad = append(bad, fmt.Sprintf("%s: got %s, want %s", r.key, v, r.val))
		}
	}
	for _, r := range got {
		if !seen[r.key] {
			bad = append(bad, fmt.Sprintf("%s: unexpected", r.key))
		}
	}
	sort.Strings(bad)
	return bad
}

// sane reports a simulation that did not run to a clean halt; the
// harness already verified its memory against the golden model.
func sane(label string, st *pipeline.Stats) error {
	if st == nil || !st.Halted || st.Committed <= 0 || st.Cycles <= 0 {
		return fmt.Errorf("%s: simulation did not halt cleanly", label)
	}
	return nil
}
