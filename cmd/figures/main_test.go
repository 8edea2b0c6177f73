package main

import (
	"errors"
	"os"
	"strings"
	"testing"

	"vanguard/internal/cli"
	"vanguard/internal/cli/clitest"
)

func TestFlags(t *testing.T) { clitest.CheckFlags(t, run) }

// TestUsageErrors pins that a command line with nothing to do, or a
// -cpistack machine with no issue slot, is rejected before any
// simulation runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{nil, "need -fig 2"},
		{[]string{"-fast"}, "need -fig 2"},
		{[]string{"-cpistack", "mcf", "-width", "0", "-fast", "-no-cache"}, "-width must be at least 1, got 0"},
	} {
		stdout, stderr, err := clitest.Exec(run, tc.args...)
		if !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%q: got %v, want a usage error", tc.args, err)
		}
		if stdout != "" || !strings.Contains(stderr, tc.msg) || !strings.Contains(stderr, "Usage of figures") {
			t.Errorf("%q: stdout %q, stderr lacks %q and the usage text:\n%s", tc.args, stdout, tc.msg, stderr)
		}
	}
}

// TestSamples renders the committed report fixture (two sampled runs and
// one unsampled run) as CSV and as sparklines.
func TestSamples(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-samples", "testdata/samples.json"}, "testdata/samples.csv.golden"},
		{[]string{"-samples", "testdata/samples.json", "-plot"}, "testdata/samples.plot.golden"},
	} {
		stdout, _, err := clitest.Exec(run, tc.args...)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if stdout != string(want) {
			t.Errorf("%q: output differs from %s:\ngot:\n%s\nwant:\n%s", tc.args, tc.golden, stdout, want)
		}
	}
}
