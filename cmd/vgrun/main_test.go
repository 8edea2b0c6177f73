package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
	}
}
