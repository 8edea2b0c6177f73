package attr

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestCauseKeysDistinct(t *testing.T) {
	seen := map[string]Cause{}
	for _, c := range Causes() {
		k := c.Key()
		if k == "" {
			t.Fatalf("cause %d has no key", c)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("causes %d and %d share key %q", prev, c, k)
		}
		seen[k] = c
	}
	if len(seen) != int(NumCauses) {
		t.Fatalf("got %d keys, want %d", len(seen), NumCauses)
	}
}

// TestConservation pins the core invariant: however charges are mixed,
// slots sum to cycles × width and the per-ID splits match the aggregates.
func TestConservation(t *testing.T) {
	r := NewRecorder(16, 3, 4)
	r.ChargeCycle(4, Fetch, 0)          // full issue: cause ignored
	r.ChargeCycle(2, CondWait, 1)       // 2 slots wait on branch 1
	r.ChargeCycle(0, ResolveWindow, 2)  // 4 slots in branch 2's window
	r.ChargeCycle(1, LoadWait, 7)       // 3 slots wait on the load at pc 7
	r.ChargeCycle(0, BrMispredict, 3)   // refill bubble for branch 3
	r.ChargeCycle(0, ResMispredict, 2)  // resolve-fire bubble for branch 2
	r.ChargeCycle(3, FUContention, 0)   // structural
	r.MoveWrongPath(BrMispredict, 3, 2) // 2 issued slots were wrong-path
	r.NoteDBBOverflow()

	rep := r.Report()
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 7 || rep.Width != 4 {
		t.Fatalf("cycles=%d width=%d, want 7 and 4", rep.Cycles, rep.Width)
	}
	if got := rep.SlotSum(); got != 28 {
		t.Fatalf("slot sum %d, want 28", got)
	}
	if got := rep.Slots[Base.Key()]; got != 8 {
		t.Fatalf("base slots %d, want 10 issued - 2 wrong-path = 8", got)
	}
	if b := rep.Branch(3); b.BrMispredict != 6 {
		t.Fatalf("branch 3 br_mispredict %d, want 4 bubble + 2 wrong-path = 6", b.BrMispredict)
	}
	if b := rep.Branch(2); b.ResMispredict != 4 || b.ResolveWindow != 4 {
		t.Fatalf("branch 2 = %+v, want res_mispredict 4 and resolve_window 4", b)
	}
	if rep.DBBOverflows != 1 {
		t.Fatalf("dbb overflows %d, want 1", rep.DBBOverflows)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := NewRecorder(8, 2, 2)
	r.ChargeCycle(1, LoadWait, 5)
	r.ChargeCycle(0, CondWait, 1)
	rep := r.Report()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", &back, rep)
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTopTables(t *testing.T) {
	r := NewRecorder(10, 4, 4)
	r.ChargeCycle(0, CondWait, 1)     // branch 1: 4
	r.ChargeCycle(0, BrMispredict, 2) // branch 2: 4
	r.ChargeCycle(2, BrMispredict, 2) // branch 2: +2 = 6
	r.ChargeCycle(0, LoadWait, 3)     // pc 3: 4
	r.ChargeCycle(2, LoadWait, 9)     // pc 9: 2
	rep := r.Report()
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}

	top := rep.TopBranches(1)
	if len(top) != 1 || top[0].ID != 2 || top[0].BrMispredict != 6 {
		t.Fatalf("top branch = %+v, want branch 2 with 6 slots", top)
	}
	loads := rep.TopLoads(0)
	if len(loads) != 2 || loads[0].PC != 3 || loads[1].PC != 9 {
		t.Fatalf("top loads = %+v, want pcs 3 then 9", loads)
	}

	if got := rep.Stack(); got[CondWait] != 4 || got[BrMispredict] != 6 {
		t.Fatalf("stack = %v", got)
	}
}

// TestChargeCyclesEqualsRepeatedCharge pins the bulk form: n cycles
// charged in one ChargeCycles call leave the recorder exactly as n
// ChargeCycle calls do, for every cause and issue count.
func TestChargeCyclesEqualsRepeatedCharge(t *testing.T) {
	for _, c := range Causes() {
		for issued := 0; issued <= 4; issued++ {
			bulk, step := NewRecorder(16, 3, 4), NewRecorder(16, 3, 4)
			for _, n := range []int64{1, 7, 130} {
				bulk.ChargeCycles(n, issued, c, 2)
				for i := int64(0); i < n; i++ {
					step.ChargeCycle(issued, c, 2)
				}
			}
			if !reflect.DeepEqual(bulk, step) {
				t.Fatalf("%s issued=%d: bulk %+v != stepped %+v", c.Key(), issued, bulk, step)
			}
		}
	}
}
