package pipeline

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vanguard/internal/exec"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

// TestDispatchDifferential is the timing half of the dispatch differential:
// the predecoded-kernel dispatch engine must produce byte-identical
// statistics — every cycle count, stall histogram, and branch counter —
// and identical architectural memory to the reference switch dispatch,
// on random structured programs across machine widths.
func TestDispatchDifferential(t *testing.T) {
	run := func(p *ir.Program, m *mem.Memory, w int, d exec.Dispatch) (*Stats, *mem.Memory) {
		t.Helper()
		cfg := DefaultConfig(w)
		cfg.Dispatch = d
		pm := m.Clone()
		mach := New(ir.MustLinearize(p), pm, cfg)
		st, err := mach.Run()
		if err != nil {
			t.Fatalf("w%d %v: %v", w, d, err)
		}
		return st, pm
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog, m := randomLoopProgram(r)
		for _, w := range []int{1, 4, 8} {
			ss, sm := run(prog, m, w, exec.DispatchSwitch)
			ks, km := run(prog, m, w, exec.DispatchKernels)
			if !reflect.DeepEqual(ss, ks) {
				t.Fatalf("seed %d w%d: stats diverged between dispatch engines:\nswitch:  %+v\nkernels: %+v", seed, w, ss, ks)
			}
			if !sm.Equal(km) {
				t.Fatalf("seed %d w%d: architectural memory diverged between dispatch engines", seed, w)
			}
		}
	}
}

// TestDispatchDifferentialLanes repeats the A/B for machines sharing one
// Code: kernel-dispatch machines over a single compiled image must match
// fresh switch-dispatch machines stat-for-stat.
func TestDispatchDifferentialLanes(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	prog, m := randomLoopProgram(r)
	im := ir.MustLinearize(prog)
	const machines = 3

	cfg := DefaultConfig(4)
	cfg.Dispatch = exec.DispatchSwitch
	want, err := New(im, m.Clone(), cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dispatch = exec.DispatchKernels
	code := Compile(im)
	for i := 0; i < machines; i++ {
		st, err := NewFromCode(code, m.Clone(), cfg).Run()
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, st) {
			t.Fatalf("machine %d: kernel machine over a shared Code diverged from a switch machine", i)
		}
	}
}

// TestDispatchCompileErrorSurfacing pins where an uncompilable image
// fails per engine: kernel dispatch rejects it when Run starts (the
// whole image compiles at load), while switch dispatch preserves the
// reference behavior of faulting only if the bad instruction is reached.
func TestDispatchCompileErrorSurfacing(t *testing.T) {
	im := &ir.Image{Instrs: []isa.Instr{
		{Op: isa.HALT},
		{Op: isa.Op(200)}, // past the HALT: never reached dynamically
	}}

	cfg := DefaultConfig(2)
	cfg.Dispatch = exec.DispatchKernels
	if _, err := New(im, mem.New(), cfg).Run(); err == nil {
		t.Fatal("kernel dispatch must reject an uncompilable image at Run start")
	} else if !strings.Contains(err.Error(), "op(200)") {
		t.Fatalf("compile rejection must name the opcode: %v", err)
	}

	cfg.Dispatch = exec.DispatchSwitch
	st, err := New(im, mem.New(), cfg).Run()
	if err != nil {
		t.Fatalf("switch dispatch must not reject an unreached bad opcode: %v", err)
	}
	if !st.Halted {
		t.Fatal("switch run must halt normally")
	}

	cfg.Dispatch = exec.DispatchKernels
	code := Compile(im)
	for i := 0; i < 2; i++ {
		if _, err := NewFromCode(code, mem.New(), cfg).Run(); err == nil {
			t.Fatalf("machine %d: a machine over a shared Code must surface the compile rejection", i)
		}
	}
}
