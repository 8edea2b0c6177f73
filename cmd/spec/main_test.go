package main

import (
	"errors"
	"strings"
	"testing"

	"vanguard/internal/cli"
	"vanguard/internal/cli/clitest"
	"vanguard/internal/trace"
)

func TestFlags(t *testing.T) { clitest.CheckFlags(t, run) }

// TestNoActionIsUsageError pins that spec with nothing to regenerate
// exits with a usage error instead of running the suites.
func TestNoActionIsUsageError(t *testing.T) {
	for _, args := range [][]string{nil, {"-fast", "-no-cache"}} {
		stdout, stderr, err := clitest.Exec(run, args...)
		if !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%q: got %v, want a usage error", args, err)
		}
		if stdout != "" || !strings.Contains(stderr, "Usage of spec") {
			t.Errorf("%q: stdout %q, stderr lacks the usage text:\n%s", args, stdout, stderr)
		}
	}
}

// TestSchema pins -schema to the tag trace.Report.Write stamps on the
// report each producing flag yields.
func TestSchema(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, trace.SchemaV1},
		{[]string{"-sample-window", "1000"}, trace.SchemaV2},
		{[]string{"-attr"}, trace.SchemaV3},
		{[]string{"-pipeview", "mcf"}, trace.SchemaV4},
		{[]string{"-sweep-trace", "sweep.json"}, trace.SchemaV5},
		{[]string{"-sweep-chrome", "sweep.json"}, trace.SchemaV5},
		{[]string{"-bpred-report"}, trace.SchemaV6},
		{[]string{"-bpred-csv", "bpred.csv"}, trace.SchemaV6},
		{[]string{"-sample-window", "1000", "-attr", "-pipeview", "mcf"}, trace.SchemaV4},
		{[]string{"-attr", "-sweep-trace", "sweep.json", "-bpred-report"}, trace.SchemaV6},
	} {
		stdout, _, err := clitest.Exec(run, append([]string{"-schema"}, tc.args...)...)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := strings.TrimSpace(stdout); got != tc.want {
			t.Errorf("-schema %q = %s, want %s", tc.args, got, tc.want)
		}
	}
}
