package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"vanguard/internal/workload"
)

// TestKernelDispatchDifferential is the end-to-end kernel differential:
// the full harness pipeline — build, profile, transform, golden check,
// timing simulation, report — must reproduce, byte for byte (modulo the
// engine section), the report whose sha256 is pinned in
// testdata/kernel_report.sha256. The digest was recorded while the
// reference exec.Step switch was still a runtime path, and the switch
// and kernel runs both produced it. Runs under -race in `make check` on
// several workers, so it also audits the compiled kernel table, which
// machines on different goroutines share through one pipeline.Code, for
// sharing hazards.
func TestKernelDispatchDifferential(t *testing.T) {
	cs := []workload.Config{}
	for _, name := range []string{"h264ref", "milc"} {
		c, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		cs = append(cs, c)
	}
	want, err := os.ReadFile("testdata/kernel_report.sha256")
	if err != nil {
		t.Fatal(err)
	}

	o := fastOptions()
	o.Jobs = 4
	rs, err := RunBenchmarks(cs, o)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(reportBytes(t, rs))
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Fatalf("report sha256 %s, pinned %s: kernel execution diverged from the recorded reference", got, strings.TrimSpace(string(want)))
	}
}
