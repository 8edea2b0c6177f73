package pipeline

import (
	"bytes"
	"math/rand"
	"testing"

	"vanguard/internal/ir"
	"vanguard/internal/mem"
	"vanguard/internal/pipeview"
	"vanguard/internal/trace"
)

// laneVariants clones base W times and overwrites the branch-outcome
// script with lane-specific random content, so the lanes share an image
// but diverge in control flow, flush behavior, and run length — the
// shape of a sweep over seeds.
func laneVariants(r *rand.Rand, base *mem.Memory, w int) []*mem.Memory {
	const dataBase = int64(1 << 20)
	mems := make([]*mem.Memory, w)
	for i := range mems {
		mems[i] = base.Clone()
		for off := int64(0); off < 256*8; off += 8 {
			mems[i].MustStore(uint64(dataBase+2048+off), int64(r.Intn(2)))
		}
	}
	return mems
}

// The tests below pin the contract of the deprecated LaneGroup shim that
// the benchmark's replay still builds on: lane i of a group behaves
// exactly like New(im, mems[i], cfg). They go with the shim.

// TestLaneGroupMatchesScalar: every lane of a W-wide group must produce
// byte-identical Stats JSON and identical architectural memory to the
// same unit run through a scalar Machine, across random programs and
// machine widths.
func TestLaneGroupMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		prog, base := randomLoopProgram(r)
		im := ir.MustLinearize(prog)
		mems := laneVariants(r, base, 6)

		for _, w := range []int{2, 4} {
			cfg := DefaultConfig(w)

			scalarStats := make([][]byte, len(mems))
			scalarMems := make([]*mem.Memory, len(mems))
			for i := range mems {
				sm := mems[i].Clone()
				st, err := New(im, sm, cfg).Run()
				if err != nil {
					t.Fatalf("seed %d w%d lane %d scalar: %v", seed, w, i, err)
				}
				scalarStats[i] = statsJSON(t, st)
				scalarMems[i] = sm
			}

			laneMems := make([]*mem.Memory, len(mems))
			for i := range mems {
				laneMems[i] = mems[i].Clone()
			}
			g := NewLaneGroup(im, laneMems, cfg)
			stats, errs := g.Run()
			for i := range mems {
				if errs[i] != nil {
					t.Fatalf("seed %d w%d lane %d: %v", seed, w, i, errs[i])
				}
				if got := statsJSON(t, stats[i]); !bytes.Equal(got, scalarStats[i]) {
					t.Fatalf("seed %d w%d lane %d: stats diverged from scalar\nscalar: %s\nlaned:  %s",
						seed, w, i, scalarStats[i], got)
				}
				if !laneMems[i].Equal(scalarMems[i]) {
					t.Fatalf("seed %d w%d lane %d: architectural memory diverged", seed, w, i)
				}
			}
		}
	}
}

// TestLaneGroupSingleLaneMatchesScalar pins the degenerate group: a
// one-lane group is exactly a scalar run.
func TestLaneGroupSingleLaneMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	prog, base := randomLoopProgram(r)
	im := ir.MustLinearize(prog)
	cfg := DefaultConfig(4)

	sm := base.Clone()
	want, err := New(im, sm, cfg).Run()
	if err != nil {
		t.Fatalf("scalar: %v", err)
	}

	lm := base.Clone()
	g := NewLaneGroup(im, []*mem.Memory{lm}, cfg)
	stats, errs := g.Run()
	if errs[0] != nil {
		t.Fatalf("lane: %v", errs[0])
	}
	if !bytes.Equal(statsJSON(t, want), statsJSON(t, stats[0])) {
		t.Fatal("single-lane group diverged from scalar run")
	}
	if !lm.Equal(sm) {
		t.Fatal("single-lane group memory diverged from scalar run")
	}
}

// TestLaneGroupIndependentRetirement: a lane that hits its cycle cap
// reports the same error a scalar run does without disturbing its
// neighbours.
func TestLaneGroupIndependentRetirement(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	prog, base := randomLoopProgram(r)
	im := ir.MustLinearize(prog)
	mems := laneVariants(r, base, 4)

	// Cap cycles low enough that some lanes die early; the surviving
	// lanes must still match their scalar runs exactly.
	cfg := DefaultConfig(4)
	cfg.MaxCycles = 300

	type ref struct {
		stats []byte
		err   string
	}
	refs := make([]ref, len(mems))
	for i := range mems {
		st, err := New(im, mems[i].Clone(), cfg).Run()
		refs[i].stats = statsJSON(t, st)
		if err != nil {
			refs[i].err = err.Error()
		}
	}

	laneMems := make([]*mem.Memory, len(mems))
	for i := range mems {
		laneMems[i] = mems[i].Clone()
	}
	stats, errs := NewLaneGroup(im, laneMems, cfg).Run()
	for i := range mems {
		gotErr := ""
		if errs[i] != nil {
			gotErr = errs[i].Error()
		}
		if gotErr != refs[i].err {
			t.Fatalf("lane %d: error %q, scalar %q", i, gotErr, refs[i].err)
		}
		if got := statsJSON(t, stats[i]); !bytes.Equal(got, refs[i].stats) {
			t.Fatalf("lane %d: stats diverged from scalar under cycle cap", i)
		}
	}
}

// TestLaneGroupObserverHooks: attribution, the cycle-window sampler, and
// the pipeview recorder are per-lane state, so a group run with every
// hook enabled must reproduce each lane's scalar telemetry reports byte
// for byte.
func TestLaneGroupObserverHooks(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	prog, base := randomLoopProgram(r)
	im := ir.MustLinearize(prog)
	mems := laneVariants(r, base, 4)

	cfg := DefaultConfig(4)
	cfg.Attr = true
	cfg.SampleWindow = 64
	cfg.Pipeview = &pipeview.Config{MaxRecords: 1 << 14, MaxFlushes: 1 << 12}

	scalar := make([][]byte, len(mems))
	for i := range mems {
		st, err := New(im, mems[i].Clone(), cfg).Run()
		if err != nil {
			t.Fatalf("lane %d scalar: %v", i, err)
		}
		if st.Attr == nil || st.Samples == nil || st.Pipeview == nil {
			t.Fatalf("lane %d scalar: missing telemetry report (attr=%v samples=%v pipeview=%v)",
				i, st.Attr != nil, st.Samples != nil, st.Pipeview != nil)
		}
		scalar[i] = statsJSON(t, st)
	}

	laneMems := make([]*mem.Memory, len(mems))
	for i := range mems {
		laneMems[i] = mems[i].Clone()
	}
	stats, errs := NewLaneGroup(im, laneMems, cfg).Run()
	for i := range mems {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if st := stats[i]; st.Attr == nil || st.Samples == nil || st.Pipeview == nil {
			t.Fatalf("lane %d: missing telemetry report under lanes", i)
		}
		if got := statsJSON(t, stats[i]); !bytes.Equal(got, scalar[i]) {
			t.Fatalf("lane %d: telemetry diverged from scalar under observers", i)
		}
	}
}

// TestLaneGroupPerLaneSinks pins that a trace sink attached to one lane
// observes only that lane's event stream: the per-lane ring matches the
// ring of the equivalent scalar run.
func TestLaneGroupPerLaneSinks(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	prog, base := randomLoopProgram(r)
	im := ir.MustLinearize(prog)
	mems := laneVariants(r, base, 3)
	cfg := DefaultConfig(4)

	want := make([][]trace.Event, len(mems))
	for i := range mems {
		ring := trace.NewRing(1 << 12)
		mach := New(im, mems[i].Clone(), cfg)
		mach.Sink = ring
		if _, err := mach.Run(); err != nil {
			t.Fatalf("lane %d scalar: %v", i, err)
		}
		want[i] = append([]trace.Event(nil), ring.Events()...)
	}

	laneMems := make([]*mem.Memory, len(mems))
	for i := range mems {
		laneMems[i] = mems[i].Clone()
	}
	g := NewLaneGroup(im, laneMems, cfg)
	rings := make([]*trace.Ring, len(mems))
	for i := range rings {
		rings[i] = trace.NewRing(1 << 12)
		g.Lane(i).Sink = rings[i]
	}
	_, errs := g.Run()
	for i := range mems {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		got := rings[i].Events()
		if len(got) != len(want[i]) {
			t.Fatalf("lane %d: %d events, scalar %d", i, len(got), len(want[i]))
		}
		for k := range got {
			if got[k] != want[i][k] {
				t.Fatalf("lane %d event %d: %+v != scalar %+v", i, k, got[k], want[i][k])
			}
		}
	}
}
