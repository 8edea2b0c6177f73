package pipeline

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"vanguard/internal/cache"
	"vanguard/internal/core"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
	"vanguard/internal/profile"
	"vanguard/internal/sched"
	"vanguard/internal/trace"
)

// fastForwardVariants are the machine settings the fast-forward
// differential crosses with every program: each observer, both caps, an
// exception every committed instruction (so exceptions back up), a
// shallow fetch buffer (fetch blocked on a full buffer), a deep front end
// (long bubbles) and a tiny L1-I (long fetch stalls). Variants with sink
// set also compare the full trace event stream.
var fastForwardVariants = []struct {
	name  string
	apply func(*Config)
	sink  bool
}{
	{"plain", func(*Config) {}, false},
	{"sink", func(*Config) {}, true},
	{"attr", func(c *Config) { c.Attr = true }, false},
	{"sample7+attr", func(c *Config) { c.SampleWindow, c.Attr = 7, true }, false},
	{"sample300", func(c *Config) { c.SampleWindow = 300 }, false},
	{"exception1+attr+sink", func(c *Config) { c.ExceptionEveryN, c.DBBInvalidateOnException, c.Attr = 1, true, true }, true},
	{"exception200", func(c *Config) { c.ExceptionEveryN = 200 }, false},
	{"maxcycles+attr", func(c *Config) { c.MaxCycles, c.Attr = 4099, true }, false},
	{"maxinstrs", func(c *Config) { c.MaxInstrs = 777 }, false},
	{"fetchbuf4+attr", func(c *Config) { c.FetchBufEntries, c.Attr = 4, true }, false},
	{"frontend13", func(c *Config) { c.FrontEndDepth = 13 }, false},
	{"icache1k+attr", func(c *Config) {
		c.Hier.L1I = cache.Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Latency: 4}
		c.Attr = true
	}, true},
	{"probe+pipeview", func(c *Config) {
		c.Probe = true
		c.Pipeview = pipeviewAll()
	}, false},
}

// ffProgram is one program image and its initial memory.
type ffProgram struct {
	im *ir.Image
	m  *mem.Memory
}

// fastForwardPrograms returns one seed's random loop program, raw and
// decomposed+scheduled (so RESOLVE windows stall too), at a
// cache-resident stride and at a memory-bound one, plus the window-fill
// program in both forms, each with its memory image.
func fastForwardPrograms(t *testing.T, seed int64) map[string]ffProgram {
	t.Helper()
	out := map[string]ffProgram{}
	build := func(name string, prog *ir.Program, m *mem.Memory) {
		out[name+"/raw"] = ffProgram{ir.MustLinearize(prog), m}
		prof := &profile.Profile{ByID: map[int]*profile.Branch{
			1: {ID: 1, Forward: true, Execs: 10000, Taken: 6000, Correct: 9200},
		}}
		trans := prog.Clone()
		rep, err := core.Transform(trans, prof, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d %s transform: %v", seed, name, err)
		}
		if len(rep.Converted) == 1 {
			sched.Program(trans, sched.DefaultModel(4))
			out[name+"/decomposed"] = ffProgram{ir.MustLinearize(trans), m}
		}
	}
	for _, stride := range []int64{8, 32<<10 + 64} {
		prog, m := randomStrideLoopProgram(rand.New(rand.NewSource(seed)), stride)
		name := "resident"
		if stride > 8 {
			name = "membound"
		}
		build(name, prog, m)
	}
	prog, m := windowFillProgram(rand.New(rand.NewSource(seed)))
	build("windowfill", prog, m)
	return out
}

// windowFillProgram is the shape the issue stage's cached operand-stall
// classification must get right, common in perlbench: right after a
// mispredict flush, while fetch is still refilling the empty buffer, a
// load that misses to memory feeds the instruction behind it, so the
// issue head stalls with fewer than six entries behind it, and the BR
// the loaded value decides enters the six-entry stall window a cycle or
// more into the stall. The flushes come from the loop's hammock branch,
// whose condition is random data one memory-bound stride apart (a
// RESOLVE once decomposed).
func windowFillProgram(r *rand.Rand) (*ir.Program, *mem.Memory) {
	const dataBase, stride = int64(1 << 20), int64(32<<10 + 64)
	f := &ir.Func{Name: "main"}
	init := f.AddBlock("init")
	head := f.AddBlock("head")
	armB := f.AddBlock("B")
	tailB := f.AddBlock("tailB")
	armC := f.AddBlock("C")
	latch := f.AddBlock("latch")
	done := f.AddBlock("done")

	iters := int64(40 + r.Intn(60))
	f.Emit(init,
		ir.Li(isa.R(1), dataBase),
		ir.Li(isa.R(5), 0), // loop counter
		ir.Li(isa.R(6), iters),
	)
	f.Emit(head,
		ir.Muli(isa.R(7), isa.R(5), stride),
		ir.Add(isa.R(7), isa.R(7), isa.R(1)),
		ir.Ld(isa.R(8), isa.R(7), 0),
		ir.BrID(isa.R(8), armC, 1),
	)
	// Each arm opens with the stall: a missing load, its consumer at the
	// issue head, three or four fillers (so at width 1 the branch is not
	// yet fetched when the stall starts), then the branch on the loaded
	// value.
	arm := func(blk, id, to int) {
		f.Emit(blk,
			ir.Ld(isa.R(12), isa.R(7), 4096),
			ir.Addi(isa.R(13), isa.R(12), 1), // the stalled head
		)
		for i := 0; i < 3+r.Intn(2); i++ {
			f.Emit(blk, ir.Addi(isa.R(9), isa.R(9), int64(1+i)))
		}
		f.Emit(blk, ir.BrID(isa.R(13), to, id))
	}
	arm(armB, 3, latch)
	f.Emit(tailB, ir.Addi(isa.R(10), isa.R(10), 3), ir.Jmp(latch))
	arm(armC, 4, latch)
	f.Emit(latch,
		ir.Addi(isa.R(5), isa.R(5), 1),
		ir.Cmp(isa.CMPLT, isa.R(4), isa.R(5), isa.R(6)),
		ir.BrID(isa.R(4), head, 2),
	)
	for i, reg := range []isa.Reg{isa.R(9), isa.R(10), isa.R(13)} {
		f.Emit(done, ir.St(isa.R(1), 512+int64(i)*8, reg))
	}
	f.Emit(done, ir.Halt())

	m := mem.New()
	for i := int64(0); i < iters; i++ {
		m.MustStore(uint64(dataBase+i*stride), int64(r.Intn(2)))
	}
	return &ir.Program{Funcs: []*ir.Func{f}}, m
}

// eventLog is a trace sink that keeps every event.
type eventLog []trace.Event

func (l *eventLog) Emit(ev trace.Event) { *l = append(*l, ev) }
func (l *eventLog) Close() error        { return nil }

// statsJSON marshals a run's full Stats (counters, histograms, and any
// attached telemetry reports) for byte-level comparison.
func statsJSON(t *testing.T, st *Stats) []byte {
	t.Helper()
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	return buf
}

// runForDiff runs one machine and returns its Stats JSON (with the error
// text of a failed or capped run appended), every trace event when sink
// is set, and its final memory.
func runForDiff(t *testing.T, im *ir.Image, m *mem.Memory, cfg Config, sink bool) ([]byte, eventLog, *mem.Memory) {
	t.Helper()
	pm := m.Clone()
	mach := New(im, pm, cfg)
	var events eventLog
	if sink {
		mach.Sink = &events
	}
	st, err := mach.Run()
	out := statsJSON(t, st)
	if err != nil {
		out = append(out, "\nerror: "+err.Error()...)
	}
	return out, events, pm
}

// TestFastForwardMatchesStepping is the fast-forward's differential
// oracle: every program under every variant and width must produce
// byte-identical Stats JSON, error text, trace events and final memory
// with idle-cycle
// fast-forward on and with every cycle stepped one at a time.
func TestFastForwardMatchesStepping(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for name, p := range fastForwardPrograms(t, seed) {
			for _, v := range fastForwardVariants {
				for _, w := range []int{1, 4, 8} {
					cfg := DefaultConfig(w)
					v.apply(&cfg)
					fast, fastEvents, fastMem := runForDiff(t, p.im, p.m, cfg, v.sink)
					cfg.stepEveryCycle = true
					slow, slowEvents, slowMem := runForDiff(t, p.im, p.m, cfg, v.sink)
					if !bytes.Equal(fast, slow) {
						t.Fatalf("seed %d %s %s w%d: fast-forward diverged from stepping\nstepped: %s\nfast:    %s",
							seed, name, v.name, w, slow, fast)
					}
					if !slices.Equal(fastEvents, slowEvents) {
						t.Fatalf("seed %d %s %s w%d: trace events diverged", seed, name, v.name, w)
					}
					if !fastMem.Equal(slowMem) {
						t.Fatalf("seed %d %s %s w%d: architectural memory diverged", seed, name, v.name, w)
					}
				}
			}
		}
	}
}

// TestFastForwardSkipsIdleCycles pins that the fast-forward engages: on a
// memory-bound program most simulated cycles are covered without a
// stepCycle call of their own.
func TestFastForwardSkipsIdleCycles(t *testing.T) {
	prog, m := randomStrideLoopProgram(rand.New(rand.NewSource(3)), 32<<10+64)
	mach := New(ir.MustLinearize(prog), m, DefaultConfig(4))
	steps := int64(0)
	for {
		done, err := mach.stepCycle()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	st := mach.Stats()
	if mach.now < 10_000 || steps*2 > mach.now {
		t.Fatalf("%d stepCycle calls covered %d cycles; want a memory-bound run where fast-forward covers most cycles",
			steps, mach.now)
	}
	if st.OperandStallCycles == 0 {
		t.Fatal("no operand stalls; the program is not memory-bound")
	}
}

// TestWindowFillShape pins that windowFillProgram really has the shape it
// exists for: stepping every cycle at width 1, some issue head's operand
// stall is first classified as a plain operand wait (no BR/RESOLVE in a
// window not yet full) and later, behind the same head, charged to the
// branch that entered the window.
func TestWindowFillShape(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, form := range []string{"windowfill/raw", "windowfill/decomposed"} {
			p, ok := fastForwardPrograms(t, seed)[form]
			if !ok {
				t.Fatalf("seed %d: no %s program", seed, form)
			}
			cfg := DefaultConfig(1)
			cfg.stepEveryCycle = true
			mach := New(p.im, p.m.Clone(), cfg)
			headSeq, sawOperand, shaped := int64(-1), false, false
			for !shaped {
				stalledBefore := mach.stats.OperandStallCycles
				done, err := mach.stepCycle()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				if mach.stats.OperandStallCycles == stalledBefore || mach.fbLen() == 0 {
					headSeq, sawOperand = -1, false
					continue
				}
				if seq := mach.fbAt(0).seq; seq != headSeq {
					headSeq, sawOperand = seq, false
				}
				switch mach.stallCause {
				case stallOperand:
					sawOperand = true
				case stallBranch, stallResolve:
					shaped = sawOperand
				}
			}
			if !shaped {
				t.Errorf("seed %d %s: no head stall saw a BR/RESOLVE enter its window", seed, form)
			}
		}
	}
}
