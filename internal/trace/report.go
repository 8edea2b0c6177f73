package trace

import (
	"encoding/json"
	"io"
	"os"
	"strconv"

	"vanguard/internal/attr"
	"vanguard/internal/bpred"
	"vanguard/internal/sample"
)

// SchemaV1/V2/V3 identify the run-report wire format — the single home of
// the version strings every producer and consumer keys on. Bump the
// suffix on any incompatible change; additive changes (new counters, new
// hists) keep the version.
//
// SchemaV2 adds the optional per-run `samples` section (cycle-window
// time series). SchemaV3 adds the optional per-run `attribution` section
// (per-cause issue-slot accounting). SchemaV4 adds the optional per-run
// `pipeview` section (per-instruction lifetime records and squash
// genealogy). SchemaV5 adds the optional per-report `sweep` section (the
// engine flight recording). SchemaV6 adds the optional per-run
// `bpredstudy` section (the predictor observatory: table-level usage and
// the per-branch predictability classification). A report is stamped
// with the highest version whose section it actually carries, so
// sampling-off / attribution-off / pipeview-off / recorder-off /
// probe-off output is bit-identical to v1 and older consumers are
// unaffected unless they opt in.
const (
	SchemaV1 = "vanguard-telemetry/v1"
	SchemaV2 = "vanguard-telemetry/v2"
	SchemaV3 = "vanguard-telemetry/v3"
	SchemaV4 = "vanguard-telemetry/v4"
	SchemaV5 = "vanguard-telemetry/v5"
	SchemaV6 = "vanguard-telemetry/v6"
)

// maxSchemaVersion is the single source of truth for the newest schema
// revision: the accepted-version set in ReadReport and the range printed
// by SchemaError are both derived from it through schemaVersion, so
// adding a SchemaVN constant without bumping this is caught by
// TestSchemaConstantsAccepted rather than silently rejecting new
// reports.
const maxSchemaVersion = 6

// schemaVersion renders revision n as its wire tag ("vanguard-telemetry/vN").
func schemaVersion(n int) string { return "vanguard-telemetry/v" + strconv.Itoa(n) }

// schemaAccepted reports whether tag is a known schema revision.
func schemaAccepted(tag string) bool {
	for n := 1; n <= maxSchemaVersion; n++ {
		if tag == schemaVersion(n) {
			return true
		}
	}
	return false
}

// Schema is the base (v1) schema tag new reports start from.
const Schema = SchemaV1

// Report is the single machine-readable schema shared by every CLI's
// -json flag: vgrun emits one benchmark with one timing run, spec emits
// every benchmark of every suite, ablate emits sweeps. Consumers key on
// Schema before trusting the rest.
type Report struct {
	Schema     string            `json:"schema"`
	Tool       string            `json:"tool"`
	Benchmarks []*BenchReport    `json:"benchmarks,omitempty"`
	Ablations  []*AblationReport `json:"ablations,omitempty"`
	// Engine records how the experiment engine executed the tool's runs.
	// It is the only non-deterministic part of a report (wall times), so
	// differential consumers compare reports with Engine stripped.
	Engine *EngineReport `json:"engine,omitempty"`
	// Sweep is the engine flight recording (per-unit lifecycle spans),
	// present only when the tool ran with the sweep recorder on
	// (-sweep-trace); its presence bumps the report to v5. Like Engine it
	// carries wall times, so differential consumers strip it too.
	Sweep *SweepReport `json:"sweep,omitempty"`
}

// EngineReport is the experiment-engine telemetry of one tool invocation:
// worker-pool size, run-cache effectiveness, and per-unit wall times in
// enumeration order.
type EngineReport struct {
	Jobs        int          `json:"jobs"`
	Units       int          `json:"units"`
	CacheHits   int          `json:"cache_hits"`
	CacheMisses int          `json:"cache_misses"`
	WallMS      float64      `json:"wall_ms"`
	UnitWall    []EngineUnit `json:"unit_wall,omitempty"`
}

// EngineUnit is one executed experiment unit.
type EngineUnit struct {
	Label    string  `json:"label"`
	WallMS   float64 `json:"wall_ms"`
	CacheHit bool    `json:"cache_hit,omitempty"`
}

// NewReport builds an empty report for the named tool.
func NewReport(tool string) *Report {
	return &Report{Schema: Schema, Tool: tool}
}

// BenchReport is one benchmark's measurements: the transform summary (if
// the decomposed branch transformation ran) and one RunReport per
// (label, input, width) timing run.
type BenchReport struct {
	Name      string           `json:"name"`
	Suite     string           `json:"suite,omitempty"`
	Transform *TransformReport `json:"transform,omitempty"`
	Runs      []*RunReport     `json:"runs"`
}

// TransformReport summarizes one program's decomposed branch
// transformation (the core.Report fields downstream tooling needs).
type TransformReport struct {
	Converted     int            `json:"converted"`
	ForwardStatic int            `json:"forward_static"`
	PBCPct        float64        `json:"pbc_pct"`
	PISCSPct      float64        `json:"piscs_pct"`
	StaticBefore  int            `json:"static_before"`
	StaticAfter   int            `json:"static_after"`
	Branches      []BranchReport `json:"branches,omitempty"`
}

// BranchReport is one converted branch.
type BranchReport struct {
	ID             int     `json:"id"`
	Bias           float64 `json:"bias"`
	Predictability float64 `json:"predictability"`
	Execs          int64   `json:"execs"`
	SlicePushed    int     `json:"slice_pushed"`
	Hoisted        int     `json:"hoisted"`
	Temps          int     `json:"temps"`
}

// RunReport is one timing run: scalar counters, derived rates, and the
// latency/occupancy histograms. Counter and histogram names are stable
// snake_case keys (see DESIGN.md's Observability section).
type RunReport struct {
	Label    string             `json:"label,omitempty"` // "base" | "exp" | "timing"
	Input    string             `json:"input,omitempty"`
	Width    int                `json:"width"`
	Counters map[string]int64   `json:"counters"`
	Rates    map[string]float64 `json:"rates,omitempty"`
	Hists    map[string]*Hist   `json:"hists,omitempty"`
	// Samples is the cycle-window time series, present only when the run
	// was sampled (-sample-window); its presence bumps the report to v2.
	Samples *sample.Series `json:"samples,omitempty"`
	// Attribution is the per-cause issue-slot accounting, present only
	// when the run attributed cycles (-attr); its presence bumps the
	// report to v3.
	Attribution *attr.Report `json:"attribution,omitempty"`
	// Pipeview is the per-instruction lifetime capture, present only when
	// the run recorded a pipeline waterfall (-pipeview); its presence
	// bumps the report to v4.
	Pipeview *PipeviewReport `json:"pipeview,omitempty"`
	// Bpredstudy is the predictor observatory (per-table provider usage,
	// occupancy/aliasing, and the per-branch predictability
	// classification), present only when the run probed its predictor
	// (-bpred-report/-bpred-csv); its presence bumps the report to v6.
	Bpredstudy *bpred.StudyReport `json:"bpredstudy,omitempty"`
}

// AblationReport is one sweep of a design parameter.
type AblationReport struct {
	Title  string          `json:"title"`
	Points []AblationPoint `json:"points"`
}

// AblationPoint is one configuration of a sweep.
type AblationPoint struct {
	Label      string  `json:"label"`
	SpeedupPct float64 `json:"speedup_pct"`
}

// sampled reports whether any run carries a samples section.
func (r *Report) sampled() bool {
	for _, b := range r.Benchmarks {
		for _, run := range b.Runs {
			if run.Samples != nil {
				return true
			}
		}
	}
	return false
}

// attributed reports whether any run carries an attribution section.
func (r *Report) attributed() bool {
	for _, b := range r.Benchmarks {
		for _, run := range b.Runs {
			if run.Attribution != nil {
				return true
			}
		}
	}
	return false
}

// pipeviewed reports whether any run carries a pipeview section.
func (r *Report) pipeviewed() bool {
	for _, b := range r.Benchmarks {
		for _, run := range b.Runs {
			if run.Pipeview != nil {
				return true
			}
		}
	}
	return false
}

// bpredstudied reports whether any run carries a bpredstudy section.
func (r *Report) bpredstudied() bool {
	for _, b := range r.Benchmarks {
		for _, run := range b.Runs {
			if run.Bpredstudy != nil {
				return true
			}
		}
	}
	return false
}

// Sections names the optional sections a report carries.
type Sections struct {
	Samples, Attribution, Pipeview, Sweep, Bpredstudy bool
}

// SchemaFor returns the schema tag of a report carrying the sections s:
// the highest tag whose section is present (v6 bpredstudy over v5 sweep
// over v4 pipeview over v3 attribution over v2 samples), or v1 for none.
func SchemaFor(s Sections) string {
	switch {
	case s.Bpredstudy:
		return SchemaV6
	case s.Sweep:
		return SchemaV5
	case s.Pipeview:
		return SchemaV4
	case s.Attribution:
		return SchemaV3
	case s.Samples:
		return SchemaV2
	}
	return SchemaV1
}

// Write renders the report as indented JSON. A report still at the base
// tag is stamped with the SchemaFor the sections it carries.
func (r *Report) Write(w io.Writer) error {
	if r.Schema == SchemaV1 {
		r.Schema = SchemaFor(Sections{
			Samples:     r.sampled(),
			Attribution: r.attributed(),
			Pipeview:    r.pipeviewed(),
			Sweep:       r.Sweep != nil,
			Bpredstudy:  r.bpredstudied(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport parses a report and verifies its schema tag.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if !schemaAccepted(r.Schema) {
		return nil, &SchemaError{Got: r.Schema}
	}
	return &r, nil
}

// SchemaError reports a schema-tag mismatch.
type SchemaError struct{ Got string }

func (e *SchemaError) Error() string {
	return "trace: report schema " + e.Got + " (want " + schemaVersion(1) + ".." + schemaVersion(maxSchemaVersion) + ")"
}
