package pipeline

import (
	"vanguard/internal/ir"
	"vanguard/internal/mem"
)

// DefaultLanes is the lane-group width used when a caller asks for
// automatic laning (harness.Options.Lanes == 0, the CLIs' `-lanes 0`).
// Under quantum rotation only one lane's mutable state is hot at a time,
// so width costs little; eight lanes amortizes the shared
// predecode/image setup over enough machines to matter while keeping
// per-group skew (lanes finish within laneQuantum of each other) small.
const DefaultLanes = 8

// LaneGroup steps W independent machines as one scheduling unit. The
// lanes share everything immutable — the program image, the predecode
// table, the derived cache-tag geometry, the Config — and own everything
// mutable: fetch queue, scoreboard, store buffer, predictor state,
// caches, stats. Because no mutable state crosses lanes, each lane's
// architectural and telemetry results are byte-identical to the same
// unit run through a scalar Machine; grouping only changes host-side
// scheduling (lanes rotate in bounded quanta over the shared tables).
//
// Lanes retire independently: a lane that halts, faults, or hits its
// cycle cap is masked out of the live set and the rest keep stepping —
// a short program never barriers on a long one.
type LaneGroup struct {
	lanes []*Machine
	stats []*Stats
	errs  []error
}

// NewLaneGroup builds one machine per memory, all over the same image and
// config. The predecode table and cache-tag geometry are derived once and
// shared by every lane (they are read-only for the life of the run);
// mems[i] becomes lane i's architectural memory. Lane i's results are
// identical to New(im, mems[i], cfg).Run()'s. Like New, it panics on a
// Config whose Width is below 1.
func NewLaneGroup(im *ir.Image, mems []*mem.Memory, cfg Config) *LaneGroup {
	cfg.check()
	pre, preErr := predecode(im.Instrs)
	geom := cfg.Hier.Geom()
	g := &LaneGroup{
		lanes: make([]*Machine, len(mems)),
		stats: make([]*Stats, len(mems)),
		errs:  make([]error, len(mems)),
	}
	for i, m := range mems {
		g.lanes[i] = newShared(im, m, cfg, pre, geom)
		g.lanes[i].preErr = preErr
	}
	return g
}

// Lanes returns the group width.
func (g *LaneGroup) Lanes() int { return len(g.lanes) }

// Lane returns lane i's machine, e.g. to attach a trace sink before Run
// or to read its memory for post-run verification. Observer state is
// strictly per lane: a sink attached to lane i sees only lane i's events.
func (g *LaneGroup) Lane(i int) *Machine { return g.lanes[i] }

// laneQuantum is how many simulated cycles one lane steps per rotation
// turn. Lanes are independent, so any interleaving yields identical
// results; the quantum exists purely for host locality. Per-cycle
// rotation measured as a monotonic loss — W lanes' mutable state (fetch
// ring, scoreboard, store buffer, caches, predictor tables) evicts each
// other from the host cache every simulated cycle — and small quanta
// still pay a working-set refill on every switch, so the quantum is
// sized to make the refill negligible against the turn (a 64k-cycle
// turn is milliseconds of host time) while still bounding the skew
// between lanes, so a group's lanes finish near each other rather than
// strictly serially.
const laneQuantum = 1 << 16

// Run steps every lane to completion and returns per-lane stats and
// errors (indexes match the mems passed to NewLaneGroup). stats[i] is
// always non-nil and errs[i] follows Machine.Run's contract: nil on a
// clean halt, the architectural fault or cycle-cap error otherwise.
//
// Scheduling is quantum rotation: each live lane steps laneQuantum
// cycles (or to completion) per turn, then the next lane runs. The
// per-cycle phase order inside a lane — cap check, resolve, issue,
// fetch — is exactly Machine.Run's, and no mutable state crosses lanes,
// so the rotation is unobservable in results or telemetry. A lane that
// halts, faults, or hits its cycle cap is masked out of the live set
// and the rest keep rotating — a short program never barriers on a
// long one.
func (g *LaneGroup) Run() ([]*Stats, []error) {
	live := make([]int, 0, len(g.lanes))
	for i, m := range g.lanes {
		if err := m.compileErr(); err != nil {
			g.errs[i] = err
			m.finishStats()
			continue
		}
		m.prepareRun()
		live = append(live, i)
	}
	for len(live) > 0 {
		w := live[:0]
		for _, i := range live {
			m := g.lanes[i]
			target := m.now + laneQuantum
			finished := false
			for {
				if m.now >= m.maxCycles {
					g.errs[i] = m.cycleLimitErr()
					finished = true
					break
				}
				done, err := m.resolvePhase()
				if err != nil || done {
					g.errs[i] = err
					finished = true
					break
				}
				m.issuePhase()
				m.fetchPhase()
				if m.now >= target {
					break
				}
			}
			if finished {
				m.finishStats()
				continue
			}
			w = append(w, i)
		}
		live = w
	}
	for i, m := range g.lanes {
		g.stats[i] = &m.stats
	}
	return g.stats, g.errs
}
