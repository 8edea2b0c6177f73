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
// reports (modulo the engine section) under kernel and switch dispatch,
// both scalar (Lanes=1) and lane-grouped (Lanes=0, auto). Runs under
// -race in `make check`, so it also audits the compiled kernel table for
// cross-lane sharing hazards.
func TestKernelDispatchDifferential(t *testing.T) {
	cs := []workload.Config{}
	for _, name := range []string{"h264ref", "milc"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		cs = append(cs, c)
	}

	run := func(d exec.Dispatch, lanes int) []byte {
		o := fastOptions()
		o.Dispatch = d
		o.Lanes = lanes
		rs, err := RunBenchmarks(cs, o)
		if err != nil {
			t.Fatal(err)
		}
		return reportBytes(t, rs)
	}

	ref := run(exec.DispatchSwitch, 1)
	for _, lanes := range []int{1, 0} {
		if got := run(exec.DispatchKernels, lanes); !bytes.Equal(ref, got) {
			t.Fatalf("kernel dispatch (lanes=%d) diverged from switch reference:\n--- switch ---\n%s\n--- kernels ---\n%s",
				lanes, ref, got)
		}
	}
}
