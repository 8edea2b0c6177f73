package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// A span is one call into a layer during the traced replay. Spans of one
// engine task form a tree under the task's top-level span ("unit" for a
// scalar unit, "group" for a lane group); Parent indexes the enclosing
// span in the same list, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
}

// taskTrace collects the spans of one engine task. Only the worker
// running the task touches it, so it needs no lock; the replay reads it
// after the engine run has returned.
type taskTrace struct {
	origin time.Time
	unit   int
	spans  []span
	stack  []int
}

func newTaskTrace(origin time.Time, unit int, top string) *taskTrace {
	t := &taskTrace{origin: origin, unit: unit}
	t.begin(top)
	return t
}

// begin opens a span for the task's current unit under the innermost
// open span and returns its index for end.
func (t *taskTrace) begin(name string) int {
	return t.beginUnit(name, t.unit)
}

// beginUnit opens a span charged to another unit of the same task (a
// lane group member).
func (t *taskTrace) beginUnit(name string, unit int) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Unit: unit})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *taskTrace) end(i int) {
	t.spans[i].End = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// close ends the top-level span.
func (t *taskTrace) close() { t.end(0) }

// flatten concatenates task traces into one list, rebasing parents.
func flatten(tasks []*taskTrace) []span {
	var out []span
	for _, t := range tasks {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children are covered once: the
// children's intervals are merged before subtracting.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.End - s.Start - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// occupancy sweeps the top-level spans of one engine run over the
// bracket [from, to] and returns the worker time no task occupied (idle,
// against `workers` workers) and the most tasks ever running at once.
func occupancy(spans []span, from, to int64, workers int) (idle int64, peak int) {
	type edge struct {
		t     int64
		delta int
	}
	var es []edge
	for _, s := range spans {
		if s.Parent < 0 {
			es = append(es, edge{max(s.Start, from), +1}, edge{min(s.End, to), -1})
		}
	}
	// Ends sort before starts at the same instant: back-to-back tasks on
	// one worker never count as concurrent.
	sort.Slice(es, func(a, b int) bool {
		if es[a].t != es[b].t {
			return es[a].t < es[b].t
		}
		return es[a].delta < es[b].delta
	})
	active, last := 0, from
	for _, e := range es {
		idle += int64(workers-active) * (e.t - last)
		active += e.delta
		peak = max(peak, active)
		last = e.t
	}
	idle += int64(workers-active) * (to - last)
	return idle, peak
}

// conservationTolerance bounds |Σ self + idle − workers × wall| as a share
// of workers × wall. Self times and idle come from the replay's spans and
// its bracket around each engine run; workers × wall comes from the
// engine's own Stats, whose wall clock starts after the workers spawn, so
// the two differ by the engine's start-up and join, far below 1%.
const conservationTolerance = 0.01

// engineRun is one replayed engine job set: its spans' bracket, its
// units, and the worker count and wall clock the engine reported.
type engineRun struct {
	from, to     int64
	unit0, unit1 int // the run's global unit ids, [unit0, unit1)
	workers      int
	wall         time.Duration
}

// conservation checks that the layers' self times plus idle worker time
// account for workers × wall of every engine run, and that no more tasks
// ever ran at once than there were workers — which would mean a lane
// group's time was charged to each member rather than once.
func conservation(spans []span, self []int64, runs []engineRun) (selfSum, idle, capacity int64, err error) {
	for i := range spans {
		selfSum += self[i]
	}
	for _, r := range runs {
		var in []span
		for _, s := range spans {
			if s.Parent < 0 && s.Start >= r.from && s.End <= r.to {
				in = append(in, s)
			}
		}
		id, peak := occupancy(in, r.from, r.to, r.workers)
		if peak > r.workers {
			return 0, 0, 0, fmt.Errorf("%d tasks ran at once on %d workers", peak, r.workers)
		}
		idle += id
		capacity += int64(r.workers) * int64(r.wall)
	}
	if capacity == 0 {
		return selfSum, idle, capacity, fmt.Errorf("no engine time recorded")
	}
	if d := float64(selfSum + idle - capacity); d > conservationTolerance*float64(capacity) || -d > conservationTolerance*float64(capacity) {
		return selfSum, idle, capacity, fmt.Errorf("self %.3fs + idle %.3fs != workers x wall %.3fs (tolerance %.0f%%)",
			sec(selfSum), sec(idle), sec(capacity), 100*conservationTolerance)
	}
	return selfSum, idle, capacity, nil
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }

// layerTotals sums self time per span name.
func layerTotals(spans []span, self []int64) map[string]int64 {
	m := map[string]int64{}
	for i, s := range spans {
		m[s.Name] += self[i]
	}
	return m
}

// writeLayerTable renders the "where the time goes" table: each layer's
// self time and its share of the workers × wall the engine had.
func writeLayerTable(w io.Writer, title string, totals map[string]int64, idle, capacity int64) {
	type row struct {
		name string
		ns   int64
	}
	var rows []row
	for k, v := range totals {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].ns != rows[b].ns {
			return rows[a].ns > rows[b].ns
		}
		return rows[a].name < rows[b].name
	})
	rows = append(rows, row{"(idle worker)", idle})
	fmt.Fprintf(w, "%s\n\n| layer | self s | share of workers x wall |\n|---|---:|---:|\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %.3f | %.1f%% |\n", r.name, sec(r.ns), 100*float64(r.ns)/float64(capacity))
	}
	fmt.Fprintf(w, "| **workers x wall** | %.3f | 100.0%% |\n", sec(capacity))
}

// writeSpans writes the spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
