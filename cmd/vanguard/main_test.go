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

// TestList pins -list against testdata/list.golden: one line per suite
// naming its benchmarks in suite order.
func TestList(t *testing.T) {
	stdout, _, err := clitest.Exec(run, "-list")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("-list output differs from testdata/list.golden:\ngot:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestZeroWidthIsUsageError pins that -width 0 is rejected up front
// instead of panicking inside a simulation.
func TestZeroWidthIsUsageError(t *testing.T) {
	stdout, stderr, err := clitest.Exec(run, "-bench", "mcf", "-width", "0")
	if !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("got %v, want a usage error", err)
	}
	if stdout != "" || !strings.Contains(stderr, "-width must be at least 1, got 0") {
		t.Errorf("stdout %q, stderr lacks the width message:\n%s", stdout, stderr)
	}
}
