package pipeline

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
)

// TestDispatchDifferential is the timing half of the kernel differential:
// the predecoded kernels must produce byte-identical statistics — every
// cycle count, stall histogram, and branch counter — and identical
// architectural memory to the reference exec.Step oracle, on random
// structured programs across machine widths.
func TestDispatchDifferential(t *testing.T) {
	run := func(p *ir.Program, m *mem.Memory, w int, stepOracle bool) (*Stats, *mem.Memory) {
		t.Helper()
		cfg := DefaultConfig(w)
		cfg.stepOracle = stepOracle
		pm := m.Clone()
		mach := New(ir.MustLinearize(p), pm, cfg)
		st, err := mach.Run()
		if err != nil {
			t.Fatalf("w%d stepOracle=%v: %v", w, stepOracle, err)
		}
		return st, pm
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog, m := randomLoopProgram(r)
		for _, w := range []int{1, 4, 8} {
			ss, sm := run(prog, m, w, true)
			ks, km := run(prog, m, w, false)
			if !reflect.DeepEqual(ss, ks) {
				t.Fatalf("seed %d w%d: kernel stats diverged from the exec.Step oracle:\nexec.Step: %+v\nkernels:   %+v", seed, w, ss, ks)
			}
			if !sm.Equal(km) {
				t.Fatalf("seed %d w%d: kernel architectural memory diverged from the exec.Step oracle", seed, w)
			}
		}
	}
}

// TestDispatchDifferentialLanes repeats the differential for machines
// sharing one Code: kernel machines over a single compiled image must
// match a fresh exec.Step-oracle machine stat-for-stat.
func TestDispatchDifferentialLanes(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	prog, m := randomLoopProgram(r)
	im := ir.MustLinearize(prog)
	const machines = 3

	cfg := DefaultConfig(4)
	cfg.stepOracle = true
	want, err := New(im, m.Clone(), cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.stepOracle = false
	code := Compile(im)
	for i := 0; i < machines; i++ {
		st, err := NewFromCode(code, m.Clone(), cfg).Run()
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, st) {
			t.Fatalf("machine %d: kernel machine over a shared Code diverged from the exec.Step oracle", i)
		}
	}
}

// TestDispatchCompileErrorSurfacing pins where an uncompilable image
// fails: Run rejects it before the first cycle (the whole image compiles
// at load), even when the bad instruction is never reached, and so does
// every machine over a shared Code.
func TestDispatchCompileErrorSurfacing(t *testing.T) {
	im := &ir.Image{Instrs: []isa.Instr{
		{Op: isa.HALT},
		{Op: isa.Op(200)}, // past the HALT: never reached dynamically
	}}

	cfg := DefaultConfig(2)
	if _, err := New(im, mem.New(), cfg).Run(); err == nil {
		t.Fatal("Run must reject an uncompilable image at start")
	} else if !strings.Contains(err.Error(), "op(200)") {
		t.Fatalf("compile rejection must name the opcode: %v", err)
	}

	code := Compile(im)
	for i := 0; i < 2; i++ {
		if _, err := NewFromCode(code, mem.New(), cfg).Run(); err == nil {
			t.Fatalf("machine %d: a machine over a shared Code must surface the compile rejection", i)
		}
	}
}
