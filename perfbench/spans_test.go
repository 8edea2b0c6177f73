package main

import (
	"strings"
	"testing"
	"time"
)

// A span's self time is its duration minus the union of its children's
// intervals: overlapping children are subtracted once, and a child
// sticking out of its parent is clipped to the parent.
func TestSelfTimesWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "unit", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 30, End: 70, Parent: 0},  // overlaps a over [30,50]
		{Name: "c", Start: 40, End: 45, Parent: 1},  // inside a
		{Name: "d", Start: 90, End: 120, Parent: 0}, // sticks out past the parent
	}
	got := selfTimes(spans)
	// unit: 100 - |[10,70] ∪ [90,100]| = 100 - 70 = 30
	want := []int64{30, 35, 40, 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if n := unionLen([][2]int64{{5, 6}, {0, 2}, {1, 3}, {3, 4}}); n != 5 {
		t.Errorf("unionLen = %d, want 5 ([0,4] and [5,6])", n)
	}
}

// Two workers over a 100 ns run: self times plus idle account for
// workers x wall, and a lane group counts once.
func TestConservation(t *testing.T) {
	spans := []span{
		{Name: "unit", Start: 0, End: 60, Parent: -1, Unit: 0},
		{Name: "sched.program", Start: 10, End: 50, Parent: 0, Unit: 0},
		{Name: "group", Start: 0, End: 90, Parent: -1, Unit: 1},
		{Name: "pipeline.run", Start: 5, End: 85, Parent: 2, Unit: 1},
		{Name: "unit", Start: 60, End: 80, Parent: -1, Unit: 3},
	}
	runs := []engineRun{{from: 0, to: 100, unit0: 0, unit1: 4, workers: 2, wall: 100 * time.Nanosecond}}
	self := selfTimes(spans)
	selfSum, idle, capacity, err := conservation(spans, self, runs)
	if err != nil {
		t.Fatal(err)
	}
	// busy 60+90+20 = 170 of 200; idle = 30.
	if selfSum != 170 || idle != 30 || capacity != 200 {
		t.Errorf("self %d idle %d capacity %d; want 170, 30, 200", selfSum, idle, capacity)
	}
	totals := layerTotals(spans, self)
	if totals["pipeline.run"] != 80 || totals["group"] != 10 || totals["unit"] != 40 {
		t.Errorf("layer totals %v", totals)
	}

	// Charging the group's run to each of its members, as a per-unit
	// recorder does, puts more tasks in flight than there are workers.
	charged := append(append([]span(nil), spans...),
		span{Name: "group", Start: 0, End: 90, Parent: -1, Unit: 2})
	if _, _, _, err := conservation(charged, selfTimes(charged), runs); err == nil || !strings.Contains(err.Error(), "at once") {
		t.Errorf("double-charged lane group: err = %v, want a concurrency violation", err)
	}

	// An engine wall clock that disagrees with the spans by more than the
	// tolerance fails.
	runs[0].wall = 120 * time.Nanosecond
	if _, _, _, err := conservation(spans, self, runs); err == nil {
		t.Error("mismatched wall clock: want a conservation error")
	}
}

func TestTaskTraceNesting(t *testing.T) {
	tt := newTaskTrace(time.Now(), 7, "group")
	a := tt.begin("engine.cache.get")
	tt.end(a)
	b := tt.beginUnit("mem.clone", 8)
	tt.end(b)
	c := tt.begin("pipeline.run")
	d := tt.begin("inner")
	tt.end(d)
	tt.end(c)
	tt.close()
	spans := flatten([]*taskTrace{newTaskTrace(time.Now(), 0, "unit"), tt})
	wantParent := []int{-1, -1, 1, 1, 1, 4}
	wantUnit := []int{0, 7, 7, 8, 7, 7}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Unit != wantUnit[i] {
			t.Errorf("span %d %s: parent %d unit %d; want %d, %d", i, s.Name, s.Parent, s.Unit, wantParent[i], wantUnit[i])
		}
	}
}
