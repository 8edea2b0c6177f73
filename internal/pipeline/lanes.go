package pipeline

import (
	"vanguard/internal/ir"
	"vanguard/internal/mem"
)

// DefaultLanes was the lane-group width of the removed lane scheduler.
//
// Deprecated: run one Machine per simulation over a shared Code
// (Compile, NewFromCode). Kept only for a caller outside this module.
const DefaultLanes = 8

// LaneGroup runs several machines over one compiled image.
//
// Deprecated: run one Machine per simulation over a shared Code
// (Compile, NewFromCode). Kept only for a caller outside this module.
type LaneGroup struct {
	lanes []*Machine
}

// NewLaneGroup compiles im once and builds one machine per memory over it;
// lane i's results are identical to New(im, mems[i], cfg).Run()'s.
//
// Deprecated: use Compile and NewFromCode.
func NewLaneGroup(im *ir.Image, mems []*mem.Memory, cfg Config) *LaneGroup {
	code := Compile(im)
	g := &LaneGroup{lanes: make([]*Machine, len(mems))}
	for i, m := range mems {
		g.lanes[i] = NewFromCode(code, m, cfg)
	}
	return g
}

// Lane returns lane i's machine.
//
// Deprecated: use Compile and NewFromCode.
func (g *LaneGroup) Lane(i int) *Machine { return g.lanes[i] }

// Run runs each lane's Machine.Run in turn and returns per-lane stats and
// errors, indexed like the mems passed to NewLaneGroup.
//
// Deprecated: use Compile and NewFromCode.
func (g *LaneGroup) Run() ([]*Stats, []error) {
	stats := make([]*Stats, len(g.lanes))
	errs := make([]error, len(g.lanes))
	for i, m := range g.lanes {
		stats[i], errs[i] = m.Run()
	}
	return stats, errs
}
