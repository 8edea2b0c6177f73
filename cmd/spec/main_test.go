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

// TestWarmRerun runs the I-cache study twice over one run cache: the
// rerun must print the same tables and compute nothing, its build units
// included.
func TestWarmRerun(t *testing.T) {
	args := []string{"-fast", "-icache", "-cache-dir", t.TempDir()}
	cold, coldLog, err := clitest.Exec(run, args...)
	if err != nil {
		t.Fatalf("cold run: %v\n%s", err, coldLog)
	}
	if !strings.Contains(coldLog, "engine: 48 units ") {
		t.Errorf("cold run enumerated other than 48 units (24 builds, 24 baseline simulations):\n%s", coldLog)
	}
	warm, warmLog, err := clitest.Exec(run, args...)
	if err != nil {
		t.Fatalf("warm run: %v\n%s", err, warmLog)
	}
	if warm != cold {
		t.Errorf("warm stdout differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if !strings.Contains(warmLog, "(run cache: 48 hits, 0 misses)") {
		t.Errorf("warm run computed units:\n%s", warmLog)
	}
}
