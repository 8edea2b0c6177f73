package sched_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vanguard/internal/ir"
	"vanguard/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_schedules.txt from the current scheduler")

const goldenPath = "testdata/golden_schedules.txt"

// goldenWidths are the machine widths the paper evaluates; BuildBinaries
// schedules at 4, the other two pin the Width-sensitive issue limit.
var goldenWidths = []int{2, 4, 8}

// scheduleDigests schedules a clone of every suite binary at every
// golden width and returns "<suite>/<config> <binary> w<width>" → the
// sha256 of the scheduled program's String().
func scheduleDigests(tb testing.TB) (keys []string, sums map[string]string) {
	sums = map[string]string{}
	for _, u := range suitePrograms(tb) {
		for _, bin := range []struct {
			name string
			p    *ir.Program
		}{{"base", u.base}, {"exp", u.exp}} {
			for _, w := range goldenWidths {
				p := bin.p.Clone()
				sched.Program(p, sched.DefaultModel(w))
				sum := sha256.Sum256([]byte(p.String()))
				k := fmt.Sprintf("%s %s w%d", u.name, bin.name, w)
				keys = append(keys, k)
				sums[k] = hex.EncodeToString(sum[:])
			}
		}
	}
	return keys, sums
}

// TestGoldenSchedules pins the scheduled form of every suite binary, so
// a scheduler change that reorders a single instruction anywhere in the
// evaluation fails here instead of drifting results silently. After an
// intentional schedule change, regenerate with
//
//	go test ./internal/sched -run TestGoldenSchedules -update
func TestGoldenSchedules(t *testing.T) {
	keys, sums := scheduleDigests(t)
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# sha256 of ir.Program.String() after sched.Program(p, sched.DefaultModel(width)),\n")
		sb.WriteString("# for both binaries of every suite config built from the harness.FastOptions TRAIN input.\n")
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
		t.Errorf("golden file has %d entries, the suites produce %d", len(want), len(keys))
	}
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: no golden digest", k)
		case w != sums[k]:
			t.Errorf("%s: schedule digest %s, golden %s", k, sums[k], w)
		}
	}
}
