package harness

import (
	"bytes"
	"testing"

	"vanguard/internal/exec"
	"vanguard/internal/workload"
)

// TestKernelDispatchDifferential is the end-to-end dispatch
// differential: the full harness pipeline — build, profile, transform,
// golden check, timing simulation, report — must produce byte-identical
// reports (modulo the engine section) under kernel and switch dispatch.
// Runs under -race in `make check` on several workers, so it also audits
// the compiled kernel table, which machines on different goroutines
// share through one pipeline.Code, for sharing hazards.
func TestKernelDispatchDifferential(t *testing.T) {
	cs := []workload.Config{}
	for _, name := range []string{"h264ref", "milc"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		cs = append(cs, c)
	}

	run := func(d exec.Dispatch) []byte {
		o := fastOptions()
		o.Dispatch = d
		rs, err := RunBenchmarks(cs, o)
		if err != nil {
			t.Fatal(err)
		}
		return reportBytes(t, rs)
	}

	if ref, got := run(exec.DispatchSwitch), run(exec.DispatchKernels); !bytes.Equal(ref, got) {
		t.Fatalf("kernel dispatch diverged from switch reference:\n--- switch ---\n%s\n--- kernels ---\n%s", ref, got)
	}
}
