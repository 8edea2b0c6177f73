package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vanguard/internal/cli"
	"vanguard/internal/cli/clitest"
)

// TestMain lets a test re-run this binary as vgrun itself: with
// VGRUN_TEST_MAIN set, the process runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VGRUN_TEST_MAIN") != "" {
		os.Args = append([]string{"vgrun"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFlags(t *testing.T) { clitest.CheckFlags(t, run) }

// TestZeroWidthIsUsageError pins that -width 0 exits at once with a usage
// error (status 2) instead of simulating a machine that never issues.
func TestZeroWidthIsUsageError(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0], "-width", w, "../../examples/asm/dotproduct.s")
		cmd.Env = append(os.Environ(), "VGRUN_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-width %s: got %v, want exit status 2", w, err)
		}
		if !strings.Contains(stderr.String(), "-width must be at least 1") {
			t.Errorf("-width %s: stderr lacks the width message:\n%s", w, stderr.String())
		}
		if _, _, err := clitest.Exec(run, "-width", w, "../../examples/asm/dotproduct.s"); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("run -width %s: got %v, want a usage error", w, err)
		}
	}
}

// TestJSONMatchesBaseline regenerates the committed width-4 telemetry
// baseline through run() and compares it with results/dotproduct_w4.json,
// ignoring the wall-clock fields.
func TestJSONMatchesBaseline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w4.json")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The report names the benchmark by its path, so run from the
	// repository root as the baseline was.
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if _, stderr, err := clitest.Exec(run, "-no-hists", "-no-cache", "-width", "4", "-json", out, "-transform", "examples/asm/dotproduct.s"); err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	got, want := readReport(t, out), readReport(t, "results/dotproduct_w4.json")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report differs from results/dotproduct_w4.json beyond wall_ms")
	}
}

// readReport decodes a JSON report with every wall_ms field removed.
func readReport(t *testing.T, path string) any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var strip func(any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "wall_ms")
			for _, e := range v {
				strip(e)
			}
		case []any:
			for _, e := range v {
				strip(e)
			}
		}
	}
	strip(v)
	return v
}
