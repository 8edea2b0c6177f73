package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vanguard/internal/trace"
)

// TestRunOrder: results come back in enumeration order no matter how the
// scheduler interleaves the workers.
func TestRunOrder(t *testing.T) {
	const n = 50
	var units []Unit[int]
	for i := 0; i < n; i++ {
		units = append(units, Unit[int]{
			Label: fmt.Sprintf("u%d", i),
			Run:   func(context.Context) (int, error) { return i * i, nil },
		})
	}
	for _, jobs := range []int{1, 4, 16} {
		res, st, err := Run(context.Background(), Config{Jobs: jobs}, units)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(res) != n || len(st.Units) != n {
			t.Fatalf("jobs=%d: got %d results, %d unit stats", jobs, len(res), len(st.Units))
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("jobs=%d: res[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
		for i, u := range st.Units {
			if u.Label != units[i].Label {
				t.Fatalf("jobs=%d: stats[%d] = %q, want %q", jobs, i, u.Label, units[i].Label)
			}
		}
	}
}

// TestRunFirstError: the lowest-indexed failure wins regardless of which
// worker sees its error first, and later units are cancelled.
func TestRunFirstError(t *testing.T) {
	errA := errors.New("unit 3 failed")
	var ran atomic.Int64
	var units []Unit[int]
	for i := 0; i < 100; i++ {
		units = append(units, Unit[int]{
			Label: fmt.Sprintf("u%d", i),
			Run: func(context.Context) (int, error) {
				ran.Add(1)
				if i == 3 {
					return 0, errA
				}
				return i, nil
			},
		})
	}
	_, _, err := Run(context.Background(), Config{Jobs: 4}, units)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want %v", err, errA)
	}
	if got := ran.Load(); got == 100 {
		t.Logf("all 100 units ran before cancellation (slow cancel, but legal)")
	}
}

// TestRunBoundedConcurrency: never more than Jobs units in flight.
func TestRunBoundedConcurrency(t *testing.T) {
	const jobs = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	var units []Unit[struct{}]
	for i := 0; i < 30; i++ {
		units = append(units, Unit[struct{}]{
			Label: fmt.Sprintf("u%d", i),
			Run: func(context.Context) (struct{}, error) {
				cur := inFlight.Add(1)
				mu.Lock()
				if cur > peak.Load() {
					peak.Store(cur)
				}
				mu.Unlock()
				defer inFlight.Add(-1)
				return struct{}{}, nil
			},
		})
	}
	if _, _, err := Run(context.Background(), Config{Jobs: jobs}, units); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Fatalf("peak concurrency %d exceeds Jobs=%d", p, jobs)
	}
}

func TestRunEmpty(t *testing.T) {
	res, st, err := Run[int](context.Background(), Config{}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: res=%v err=%v", res, err)
	}
	if st.Jobs != 0 {
		t.Fatalf("empty run reported %d jobs", st.Jobs)
	}
}

type payload struct {
	A int
	B string
}

// TestCacheRoundTrip: second run with the same keys is served from disk
// and produces identical results.
func TestCacheRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	mk := func() []Unit[payload] {
		var units []Unit[payload]
		for i := 0; i < 8; i++ {
			units = append(units, Unit[payload]{
				Label: fmt.Sprintf("u%d", i),
				Key:   Key("test", i),
				Run: func(context.Context) (payload, error) {
					computed.Add(1)
					return payload{A: i, B: fmt.Sprintf("v%d", i)}, nil
				},
			})
		}
		return units
	}

	r1, st1, err := Run(context.Background(), Config{Jobs: 2, Cache: c}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHits != 0 || st1.CacheMisses != 8 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/8", st1.CacheHits, st1.CacheMisses)
	}
	r2, st2, err := Run(context.Background(), Config{Jobs: 2, Cache: c}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHits != 8 || st2.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 8/0", st2.CacheHits, st2.CacheMisses)
	}
	if computed.Load() != 8 {
		t.Fatalf("units computed %d times, want 8", computed.Load())
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("r1[%d]=%+v != r2[%d]=%+v", i, r1[i], i, r2[i])
		}
		if !st2.Units[i].CacheHit {
			t.Fatalf("warm run unit %d not marked as a cache hit", i)
		}
	}
}

// TestCacheCorruptEntry: a damaged cache entry is recomputed, counted
// and overwritten, never served — whether it is truncated, has one digit
// of its payload flipped (still valid JSON), or is another key's intact
// entry copied under this key's path.
func TestCacheCorruptEntry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, c *Cache, key, other string)
	}{
		{"truncated", func(t *testing.T, c *Cache, key, _ string) {
			b := readFile(t, c.path(key))
			writeFile(t, c.path(key), b[:len(b)/2])
		}},
		{"flipped-digit", func(t *testing.T, c *Cache, key, _ string) {
			b := readFile(t, c.path(key))
			flipped := strings.Replace(string(b), `"A":7`, `"A":8`, 1)
			if flipped == string(b) {
				t.Fatalf("entry holds no payload digit to flip: %q", b)
			}
			writeFile(t, c.path(key), []byte(flipped))
		}},
		{"other-key", func(t *testing.T, c *Cache, key, other string) {
			writeFile(t, c.path(key), readFile(t, c.path(other)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var computed atomic.Int64
			unit := func(key string, a int) Unit[payload] {
				return Unit[payload]{Label: key[:8], Key: key, Run: func(context.Context) (payload, error) {
					computed.Add(1)
					return payload{A: a}, nil
				}}
			}
			key, other := Key("corrupt", 1), Key("corrupt", 2)
			u := unit(key, 7)
			if _, _, err := Run(context.Background(), Config{Cache: c}, []Unit[payload]{u, unit(other, 9)}); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, c, key, other)

			mon := NewMonitor()
			res, st, err := Run(context.Background(), Config{Cache: c, Monitor: mon}, []Unit[payload]{u})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].A != 7 || computed.Load() != 3 {
				t.Fatalf("damaged entry served: got %+v after %d computes, want A=7 recomputed (3 computes)", res[0], computed.Load())
			}
			if st.CacheHits != 0 || st.CacheMisses != 1 {
				t.Fatalf("damaged entry counted as a hit (hits=%d misses=%d)", st.CacheHits, st.CacheMisses)
			}
			if mon.corrupt != 1 {
				t.Fatalf("corrupt entries counted %d, want 1", mon.corrupt)
			}
			// The recompute must have repaired the entry.
			b, ok := c.Get(key)
			var p payload
			if !ok || json.Unmarshal(b, &p) != nil || p.A != 7 {
				t.Fatalf("cache entry not repaired: %q ok=%v", b, ok)
			}
		})
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestKeyStability: Key is a pure function of its parts — equal parts give
// equal keys, different parts or orders give different keys.
func TestKeyStability(t *testing.T) {
	a := Key("x", 1, payload{A: 2, B: "b"})
	b := Key("x", 1, payload{A: 2, B: "b"})
	if a != b {
		t.Fatalf("same parts produced different keys: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(a))
	}
	if Key("x", 1) == Key("1", "x") {
		t.Fatal("reordered parts collide")
	}
	if Key("x", 1) == Key("x", 2) {
		t.Fatal("distinct parts collide")
	}
}

// TestUncachedUnitsAlwaysRun: Key == "" bypasses the cache entirely.
func TestUncachedUnitsAlwaysRun(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	unit := Unit[int]{Label: "anon", Run: func(context.Context) (int, error) {
		return int(n.Add(1)), nil
	}}
	for want := 1; want <= 2; want++ {
		res, st, err := Run(context.Background(), Config{Cache: c}, []Unit[int]{unit})
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != want {
			t.Fatalf("run %d returned %d, want %d (cached?)", want, res[0], want)
		}
		if st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Fatalf("keyless unit touched the cache: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
		}
	}
}

// TestRunContextCancelled: a pre-cancelled context stops the run.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	var units []Unit[int]
	for i := 0; i < 10; i++ {
		units = append(units, Unit[int]{Label: fmt.Sprintf("u%d", i),
			Run: func(context.Context) (int, error) { ran.Add(1); return i, nil }})
	}
	_, _, err := Run(ctx, Config{Jobs: 2}, units)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if ran.Load() == 10 {
		t.Log("all units ran despite cancellation (legal but slow)")
	}
}

// TestRunUnitPanic: a unit that panics fails the run with its own label,
// the panic value and the stack instead of crashing the process; the
// other units still run, the recording ends the panicking unit with a
// fail terminal and still satisfies Check, and the monitor counts it as a
// unit error.
func TestRunUnitPanic(t *testing.T) {
	const n, bad = 100, 37
	var ran atomic.Int64
	units := make([]Unit[int], n)
	for i := range units {
		units[i] = Unit[int]{
			Label: fmt.Sprintf("u%d", i),
			Run: func(context.Context) (int, error) {
				if i == bad {
					panic("unit exploded")
				}
				ran.Add(1)
				return i, nil
			},
		}
	}
	rec := NewSweepRecorder()
	mon := NewMonitor()
	_, _, err := Run(context.Background(), Config{Jobs: 4, Recorder: rec, Monitor: mon}, units)
	if err == nil {
		t.Fatal("a panicking unit must fail the run")
	}
	for _, want := range []string{"u37: ", "panic: unit exploded", "engine_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
	if ran.Load() == 0 {
		t.Error("no other unit ran")
	}
	s := rec.Report()
	if err := s.Check(); err != nil {
		t.Fatalf("recording violates conservation: %v", err)
	}
	if s.Failed != 1 {
		t.Errorf("recorded %d failed units, want 1", s.Failed)
	}
	for _, sp := range s.Spans {
		if sp.Phase == trace.SweepPhaseUnit && sp.Unit == bad && sp.Outcome != trace.SweepFail {
			t.Errorf("panicking unit ended %q, want %q", sp.Outcome, trace.SweepFail)
		}
	}
	metrics := httptest.NewRecorder()
	mon.Handler().ServeHTTP(metrics, httptest.NewRequest("GET", "/metrics", nil))
	if body := metrics.Body.String(); !strings.Contains(body, "vanguard_unit_errors_total 1\n") {
		t.Errorf("metrics do not count the panic as a unit error:\n%s", body)
	}
}

// TestRunBatchedLanesDisabled pins the deprecated RunBatched shim: it is
// Run, so batchRun is never called even when units carry batch keys, and
// every result comes from the unit's own Run.
func TestRunBatchedLanesDisabled(t *testing.T) {
	var units []Unit[int]
	for i := 0; i < 4; i++ {
		units = append(units, Unit[int]{
			Label:    fmt.Sprintf("u%d", i),
			BatchKey: "g",
			Run:      func(context.Context) (int, error) { return i, nil },
		})
	}
	called := false
	batchRun := func(_ context.Context, idxs []int) ([]int, []error) {
		called = true
		return make([]int, len(idxs)), make([]error, len(idxs))
	}
	res, _, err := RunBatched(context.Background(), Config{Jobs: 2, Lanes: 4}, units, batchRun)
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("the RunBatched shim called batchRun")
	}
	for i, v := range res {
		if v != i {
			t.Fatalf("res[%d] = %d, want %d", i, v, i)
		}
	}
}
