package pipeline

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"vanguard/internal/attr"
	"vanguard/internal/bpred"
	"vanguard/internal/cache"
	"vanguard/internal/exec"
	"vanguard/internal/ir"
	"vanguard/internal/isa"
	"vanguard/internal/mem"
	"vanguard/internal/pipeview"
	"vanguard/internal/sample"
	"vanguard/internal/trace"
)

// fetchEntry is the hot slot of the fetch buffer: only what every
// instruction needs on the fetch→issue path. It deliberately carries no
// isa.Instr and no derivable timing: issue and resolve read the
// instruction's predecoded record through pd (so they never re-index the
// per-PC table) and the earliest issue cycle is
// fetchedAt + FrontEndDepth - 1. Speculation metadata lives in the
// parallel cold array (fetchSpec), so the per-instruction queue copies
// move 32 bytes instead of ~112.
type fetchEntry struct {
	seq       int64
	pc        int
	fetchedAt int64       // cycle the entry was fetched (fetch-to-issue telemetry)
	pd        *predecoded // the instruction's record in the shared Code
}

// fetchSpec is the cold slot paired with each fetchEntry: speculation
// metadata captured in the front end. Slots are only written (and only
// valid) for ops that issue a speculation point or repair state — BR,
// RESOLVE, RET; for everything else the slot holds stale garbage that is
// never read. Writers must assign the whole struct so unset fields are
// zero, exactly as when this data lived inline in fetchEntry.
type fetchSpec struct {
	predTaken   bool       // BR: predicted direction
	predTarget  int        // RET: RAS-predicted target
	meta        bpred.Meta // BR: predictor metadata
	histCkpt    bpred.Hist // history checkpoint (pre-push)
	rasCkpt     bpred.RASCkpt
	dbbIdx      int // RESOLVE: DBB entry to read at resolution
	dbbTailCkpt int // DBB tail for misprediction repair
	dbbOccCkpt  int // outstanding-decomposed-branch count at fetch
}

// ---- predecode ----

// predecoded is the one per-PC record fetch, issue and resolve read: the
// instruction metadata the hot loop needs (register uses/def, functional
// unit, latency, kind flags, control target, static branch), so it never
// re-derives it through isa switches or touches the image's isa.Instr,
// which only trace events and the tests' exec.Step oracle still read.
// Built once per image by Compile and shared read-only by every machine
// over that image.
type predecoded struct {
	// kernel is the instruction's compiled semantics (exec.Compile): one
	// direct-through-pointer call replaces exec.Step's megamorphic opcode
	// switch in the issue stage. nil only for an opcode the compiler
	// rejected; predecode surfaces that as its error and Run refuses to
	// start.
	kernel exec.Kernel
	// pure is the no-Result/no-error form of a pure register op
	// (exec.CompilePure; nil otherwise): such an op cannot fault, touch
	// memory, or issue a speculation point, so the issue stage skips the
	// kernel's Result construction and error check entirely.
	pure    func(*exec.State)
	uses    [3]isa.Reg
	def     isa.Reg
	op      isa.Op
	fu      isa.FU
	flags   uint8
	latency uint8
	branch  int32 // static BranchID (0 = unassigned)
	target  int32 // control-flow target PC (JMP, CALL, BR, PREDICT)
}

// predecoded.flags bits.
const (
	pdLoad  uint8 = 1 << iota // LD or LDS
	pdStore                   // ST
	pdSpec                    // BR, RESOLVE or RET: issues a speculation point
	pdSteer                   // JMP, CALL, RET, BR, PREDICT, RESOLVE or HALT: fetch acts on it
)

// predecode builds the per-PC table, compiling each instruction's kernel
// along the way. The returned error is the first kernel-compile failure
// (an unknown opcode), on which Run refuses to start.
func predecode(instrs []isa.Instr) ([]predecoded, error) {
	pre := make([]predecoded, len(instrs))
	var firstErr error
	for pc := range instrs {
		ins := &instrs[pc]
		p := &pre[pc]
		p.uses[0], p.uses[1], p.uses[2] = ins.Uses()
		p.def = ins.Def()
		p.op = ins.Op
		p.fu = ins.Op.Unit()
		p.latency = uint8(ins.Op.Latency())
		p.branch = int32(ins.BranchID)
		p.target = int32(ins.Target)
		if ins.IsLoad() {
			p.flags |= pdLoad
		}
		if ins.IsStore() {
			p.flags |= pdStore
		}
		switch ins.Op {
		case isa.BR, isa.RESOLVE, isa.RET:
			p.flags |= pdSpec | pdSteer
		case isa.JMP, isa.CALL, isa.PREDICT, isa.HALT:
			p.flags |= pdSteer
		}
		k, err := exec.Compile(ins, pc)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		p.kernel = k
		p.pure = exec.CompilePure(ins)
	}
	return pre, firstErr
}

// Code is the immutable compiled form of one program image: the image,
// its predecode table with every instruction's kernel, and the largest
// static BranchID (which sizes the attribution and probe books). Compile
// builds it once; any number of machines, on any goroutines, may then run
// over it through NewFromCode, because no machine ever writes to it. A
// machine over a shared Code is indistinguishable from one built by New.
type Code struct {
	im        *ir.Image
	pre       []predecoded
	err       error // predecode's kernel-compile error
	maxBranch int
}

// Compile predecodes im. The image must not change afterwards.
func Compile(im *ir.Image) *Code {
	pre, err := predecode(im.Instrs)
	c := &Code{im: im, pre: pre, err: err}
	for i := range im.Instrs {
		c.maxBranch = max(c.maxBranch, im.Instrs[i].BranchID)
	}
	return c
}

// ---- speculation checkpoints ----

// specPoint is an issued-but-unresolved speculation point (BR, RESOLVE or
// RET) with the checkpoints needed to repair a misprediction. Register
// state is not copied here: jMark bounds the machine's undo journal, and a
// squash rewinds the journal back to it.
type specPoint struct {
	fe          fetchEntry
	spec        fetchSpec
	resolveAt   int64
	mispredict  bool
	redirectPC  int
	actualTaken bool // BR: direction; RESOLVE: original branch outcome
	halted      bool // architectural Halted at issue

	jMark          int64 // journal high-water mark at issue
	issuedSnapshot int64
}

// regUndo journals one architectural register write: the value, poison bit
// and scoreboard ready-time the write replaced. Rewinding a suffix of the
// journal (newest first) restores the register file exactly to the state
// at any earlier mark — the bounded undo-log replacement for copying the
// full [NumRegs] arrays into every speculation point.
type regUndo struct {
	val    int64
	ready  int64
	writer int32 // last-writer PC the write replaced (operand attribution)
	reg    isa.Reg
	poison bool
}

// debugSnap is the full-copy checkpoint kept per speculation point when
// Config.debugCheckpoints is set; flush cross-checks the journal-rewound
// state against it (differential test support, never on in production).
type debugSnap struct {
	regs     [isa.NumRegs]int64
	poison   [isa.NumRegs]bool
	regReady scoreboard
	halted   bool
}

// ---- store buffer ----

type sbEntry struct {
	seq  int64
	addr uint64
	val  int64
}

// sbSlots sizes the store buffer's direct-mapped last-writer index.
const sbSlots = 16

// sbSlot caches the youngest buffered store to one address so load
// forwarding stops scanning the whole buffer on deep wrong paths. A slot
// hit requires: same generation (no squash since insert), exact address
// match, and the entry's seq still inside the buffer's live window (not
// yet drained). Anything else falls back to the scan, so collisions are
// only a missed optimization, never a wrong value.
type sbSlot struct {
	addr uint64
	val  int64
	seq  int64
	gen  uint32
}

func sbSlotIdx(addr uint64) int { return int((addr >> 3) & (sbSlots - 1)) }

// sbLookup returns the youngest buffered store to addr, if any.
func (m *Machine) sbLookup(addr uint64) (int64, bool) {
	if s := &m.sbLast[sbSlotIdx(addr)]; s.gen == m.sbGen && s.addr == addr &&
		len(m.sb) > 0 && s.seq >= m.sb[0].seq {
		return s.val, true
	}
	for i := len(m.sb) - 1; i >= 0; i-- {
		if m.sb[i].addr == addr {
			return m.sb[i].val, true
		}
	}
	return 0, false
}

// sbView gives exec.Step a memory with store-buffer semantics: stores are
// buffered (squashable), loads forward from the youngest matching store.
type sbView struct{ m *Machine }

// Load implements exec.Memory. Both legs are allocation-free: forwarding
// hits come from the last-writer index and misses take the paged memory's
// TLB fast path; a faulting (wrong-path) address returns the machine's
// preallocated Fault sentinel.
func (v sbView) Load(addr uint64) (int64, error) {
	m := v.m
	if val, ok := m.sbLookup(addr); ok {
		return val, nil
	}
	if val, ok := m.mem.LoadFast(addr); ok {
		return val, nil
	}
	m.loadFault = mem.Fault{Addr: addr}
	return 0, &m.loadFault
}

// Store implements exec.Memory. Fault detection happens eagerly (pure
// address arithmetic via mem.Valid) so wrong-path stores to garbage
// addresses surface as deferred faults rather than corrupting the buffer
// silently — without the old probing load's page-table lookup or the two
// Fault allocations per speculative store.
func (v sbView) Store(addr uint64, val int64) error {
	m := v.m
	if !mem.Valid(addr) {
		m.storeFault = mem.Fault{Addr: addr, Write: true}
		return &m.storeFault
	}
	m.sb = append(m.sb, sbEntry{seq: m.curSeq, addr: addr, val: val})
	m.sbLast[sbSlotIdx(addr)] = sbSlot{addr: addr, val: val, seq: m.curSeq, gen: m.sbGen}
	return nil
}

// Machine is one configured in-order superscalar with a loaded program.
type Machine struct {
	cfg  Config
	im   *ir.Image
	mem  *mem.Memory
	Hier *cache.Hierarchy
	pred bpred.DirPredictor
	btb  *bpred.BTB
	ras  *bpred.RAS
	DBB  *DBB

	st       *exec.State
	regReady scoreboard
	pre      []predecoded
	feDelay  int64 // FrontEndDepth-1: fetched at c, issues no earlier than c+feDelay

	// preErr is the Code's kernel-compile error (nil for any program
	// made of known opcodes); Run refuses to start while it is set.
	preErr error

	fuLimit [isa.NumFUClasses]int // issue slots per functional-unit class

	fetchPC       int
	fetchStall    int64
	lastFetchLine uint64
	fetchLineMask uint64 // clears an address's L1-I line offset
	fetchHalted   bool
	// The fetch buffer is a power-of-two ring: fbHead indexes the oldest
	// entry, fbCnt is the occupancy (bounded by FetchBufEntries), and
	// fbMask wraps indexes. A ring never compacts — the buffer runs full
	// in steady state (fetch refills what issue drains every cycle), so a
	// compacting queue would memmove nearly the whole buffer per cycle —
	// and entries keep stable addresses between push and pop.
	// fbSpec is the index-aligned cold array (see fetchSpec).
	fb     []fetchEntry
	fbSpec []fetchSpec
	fbHead int
	fbCnt  int
	fbMask int
	seq    int64
	curSeq int64

	// In-flight speculation points, a head-indexed FIFO of values (same
	// compaction discipline as the fetch buffer; no per-branch heap
	// allocation). Register state for squash repair lives in the journal.
	inflight []specPoint
	infHead  int

	// The register undo journal. journal[i] describes the (jBase+i)-th
	// architectural register write since the last release; specPoint
	// marks are absolute, so releasing a committed prefix is a cheap
	// copy-down that never touches the marks.
	journal []regUndo
	jBase   int64

	sb     []sbEntry
	sbLast [sbSlots]sbSlot
	sbGen  uint32

	// brStats memoizes stats.branch by BranchID: the per-branch books are
	// charged on every branch issue and stall scan, and a slice index
	// beats the map probe on that path. The map in Stats stays the
	// exported (and serialized) form.
	brStats []*BranchStats

	// Preallocated fault sentinels: wrong-path probes hit these instead
	// of allocating, and a fault that is actually deferred is copied into
	// pendFault so later probes cannot clobber it.
	loadFault  mem.Fault
	storeFault mem.Fault
	pendFault  mem.Fault

	// debugSnaps holds the full-copy checkpoints cross-checked against
	// journal rewinds under Config.debugCheckpoints (tests only).
	debugSnaps map[int64]*debugSnap

	// Sink, when non-nil, receives one typed trace.Event per lifecycle
	// event (fetch, issue, commit, squash, mispredict, resolve firing,
	// DBB push/pop, cache miss, deferred fault). Attach a trace.Ring for
	// post-mortems, a trace.Text for human-readable logs, a trace.Chrome
	// for Perfetto timelines, or trace.Tee for several at once. Set it
	// before Run; a nil sink costs one branch per event site.
	Sink trace.Sink

	dbbOcc int // currently outstanding decomposed branches

	// Pipeline waterfall recorder (nil unless Config.Pipeview). It is a
	// trace sink teed into Sink at Run, so it sees the same event stream
	// as any user-attached sink; Emit is allocation-free and the recorder
	// only observes, so simulated timing is unchanged.
	pview         *pipeview.Recorder
	pviewAttached bool

	// Cycle-window sampler (nil unless Config.SampleWindow > 0). The
	// per-cycle cost of a nil sampler is one nil check in stepCycle;
	// winDBBHigh tracks the occupancy high-water inside the open window
	// with one compare at each DBB push.
	sampler    *sample.Sampler
	winDBBHigh int

	// Cycle attribution (nil unless Config.Attr). attrCause/attrIdx note,
	// per cycle, which cause the issue stage would blame its empty slots
	// on; the repair pair remembers the flushing speculation point so
	// post-flush bubbles charge to the mispredicted branch. regWriter maps
	// each architectural register to the PC of its last writer (journaled
	// like the register file), so an operand stall can name the load that
	// produced the missing value.
	attr               *attr.Recorder
	attrCause          attr.Cause
	attrIdx            int
	attrRepairCause    attr.Cause
	attrRepairIdx      int
	fetchStallIsICache bool
	regWriter          [isa.NumRegs]int32

	// Predictor observatory (nil unless Config.Probe). The probe is
	// attached to the direction predictor at construction (table-level
	// event hooks) and fed the committed resolution stream here at
	// resolve time; it observes and never steers, so simulated timing
	// and all other stats are unchanged.
	probe *bpred.Probe

	// Issue-head stall run tracking (feeds the StallRun* histograms).
	// stallBranch is the branch an operand stall charged its StallCycles
	// to (stallBranch/stallResolve causes), for idle fast-forward.
	stallCause  uint8
	stallRun    int64
	stallBranch *BranchStats
	// headStall caches the current issue head's operand-stall
	// classification (see operandStall).
	headStall headStall
	// fetchToIssue counts issued instructions by fetch-to-issue latency
	// (index) below its length; finishStats folds it into
	// Stats.FetchToIssue, whose totals do not depend on observation order.
	fetchToIssue [256]int64
	// repairStart is the cycle of the flush currently being repaired, or
	// -1 when issue has caught up again (feeds RepairPenalty).
	repairStart int64

	nextException int64

	// maxCycles is the effective cycle cap (Config.MaxCycles, or the 2e9
	// default).
	maxCycles int64

	now          int64
	haltSeq      int64
	pendFaultSeq int64
	pendFaultErr error
	underMispred bool

	stats Stats
}

// New builds a machine over the image and memory (mutated during the run).
// It panics on a Config whose Width is below 1.
func New(im *ir.Image, m *mem.Memory, cfg Config) *Machine {
	return NewFromCode(Compile(im), m, cfg)
}

// NewFromCode builds a machine over a compiled image and its own memory
// (mutated during the run). The Code is only read, so machines on other
// goroutines may share it. It panics on a Config whose Width is below 1.
func NewFromCode(code *Code, m *mem.Memory, cfg Config) *Machine {
	cfg.check()
	im := code.im
	mach := &Machine{
		cfg:           cfg,
		im:            im,
		mem:           m,
		Hier:          cache.NewHierarchy(cfg.Hier),
		pred:          cfg.NewPredictor(),
		btb:           bpred.NewBTB(cfg.BTBLogEntries),
		ras:           bpred.NewRAS(cfg.RASEntries),
		DBB:           NewDBB(cfg.DBBEntries),
		pre:           code.pre,
		preErr:        code.err,
		feDelay:       int64(cfg.FrontEndDepth) - 1,
		fetchPC:       im.Entry,
		lastFetchLine: math.MaxUint64,
		fetchLineMask: ^uint64(cfg.Hier.L1I.LineBytes - 1),
		fb:            make([]fetchEntry, ringSize(cfg.FetchBufEntries)),
		fbSpec:        make([]fetchSpec, ringSize(cfg.FetchBufEntries)),
		fbMask:        ringSize(cfg.FetchBufEntries) - 1,
		inflight:      make([]specPoint, 0, 2*cfg.Width+4),
		journal:       make([]regUndo, 0, 64),
		sb:            make([]sbEntry, 0, 64),
		haltSeq:       -1,
		pendFaultSeq:  -1,
		repairStart:   -1,
		headStall:     headStall{seq: -1},
	}
	mach.st = exec.NewState(sbView{mach}, im.Entry)
	mach.fuLimit[isa.FUInt] = cfg.IntUnits
	mach.fuLimit[isa.FUMem] = cfg.MemUnits
	mach.fuLimit[isa.FUFP] = cfg.FPUnits
	mach.nextException = cfg.ExceptionEveryN
	mach.maxCycles = cfg.MaxCycles
	if mach.maxCycles <= 0 {
		mach.maxCycles = 2_000_000_000
	}
	if cfg.Attr {
		mach.attr = attr.NewRecorder(len(im.Instrs), code.maxBranch, cfg.Width)
	}
	if cfg.Probe {
		mach.probe = bpred.NewProbe(code.maxBranch)
		mach.probe.Attach(mach.pred)
	}
	for r := range mach.regWriter {
		mach.regWriter[r] = -1
	}
	if cfg.SampleWindow > 0 {
		mach.sampler = sample.New(cfg.SampleWindow, 0)
		if cfg.Attr {
			mach.sampler.EnableAttr()
		}
	}
	if cfg.Pipeview != nil {
		mach.pview = pipeview.NewRecorder(*cfg.Pipeview)
	}
	return mach
}

// attachPipeview tees the waterfall recorder into the event sink (idempotent;
// called at Run so a caller-assigned Sink is already in place).
func (m *Machine) attachPipeview() {
	if m.pview != nil && !m.pviewAttached {
		m.Sink = trace.Tee(m.Sink, m.pview)
		m.pviewAttached = true
	}
}

// exceptionPenaltyCycles models the cost of entering and leaving the
// handler (pipeline drain + flush + kernel work stand-in).
const exceptionPenaltyCycles = 30

// takeException injects an exceptional control-flow event at a quiet
// point (no unresolved speculation): the fetch buffer is squashed and
// refetched, a handler penalty is charged, and the handler's own
// decomposed branches move the DBB tail. Under the paper's second
// strategy the surviving entries are invalidated first, so resolves from
// before the event suppress their updates instead of training garbage.
func (m *Machine) takeException() {
	m.stats.Exceptions++
	if m.fbLen() > 0 {
		head := m.fbAt(0)
		m.fetchPC = head.pc
		m.stats.SquashedFetched += int64(m.fbLen())
		if m.Sink != nil {
			m.Sink.Emit(trace.Event{Kind: trace.KindSquash, Cause: trace.CauseException,
				Cycle: m.now, Seq: head.seq, PC: head.pc, Val: int64(m.fbLen())})
		}
		m.fbClear()
	}
	m.fetchHalted = false
	m.lastFetchLine = math.MaxUint64
	m.fetchStall += exceptionPenaltyCycles
	m.fetchStallIsICache = false
	// Handler activity moves the DBB tail with its own decomposed
	// branches...
	handlerPC := uint64(0xffff0000)
	for i := 0; i < 2; i++ {
		taken, meta := m.pred.Predict(handlerPC + uint64(i*4))
		m.DBB.Insert(handlerPC+uint64(i*4), taken, meta, m.pred.Checkpoint())
		if m.Sink != nil {
			m.Sink.Emit(trace.Event{Kind: trace.KindDBBPush, Cause: trace.CauseException,
				Cycle: m.now, Seq: -1, Val: int64(m.dbbOcc)})
		}
	}
	// ...and under the second strategy, the return to user code marks
	// everything invalid, so stale pairings suppress their updates until
	// the next predict refills the buffer.
	if m.cfg.DBBInvalidateOnException {
		m.DBB.InvalidateAll()
	}
}

// Stats returns the machine's live statistics: a view into the Machine
// that later cycles keep updating and that keeps the whole machine
// reachable while it is held. Run's result is the detached copy.
func (m *Machine) Stats() *Stats { return &m.stats }

// Memory returns the machine's architectural memory (for post-run
// verification against a golden model).
func (m *Machine) Memory() *mem.Memory { return m.mem }

// stepCycle advances the machine by one cycle: resolve speculation, surface
// committed faults, drain committed stores, inject exceptions, then issue
// and fetch. It returns done=true when the run is over (HALT drained or an
// instruction cap hit) and a non-nil error on an architectural fault.
func (m *Machine) stepCycle() (done bool, err error) {
	if m.infLen() > 0 {
		m.resolve()
	}
	if m.pendFaultSeq >= 0 {
		if err := m.commitFaultCheck(); err != nil {
			return true, err
		}
	}
	if len(m.sb) > 0 {
		m.drainStores()
	}
	if m.cfg.ExceptionEveryN > 0 && m.infLen() == 0 &&
		m.stats.Issued-m.stats.WrongPathIssued >= m.nextException {
		m.takeException()
		m.nextException += m.cfg.ExceptionEveryN
	}
	if (m.haltSeq >= 0 || m.cfg.MaxInstrs > 0) && m.done() {
		return true, nil
	}
	m.issuePhase()
	m.fetch()
	m.now++
	if m.sampler != nil && m.now >= m.sampler.NextAt() {
		m.closeSampleWindow()
	}
	return false, nil
}

// issuePhase runs the issue stage, attribution-wrapped when enabled, and
// fast-forwards over the idle cycles that provably repeat a zero-issue
// one.
func (m *Machine) issuePhase() {
	var wake int64
	if m.attr == nil {
		wake = m.issue()
	} else {
		issuedBefore := m.stats.Issued
		m.attrCause, m.attrIdx = attr.Fetch, 0
		wake = m.issue()
		m.chargeAttr(int(m.stats.Issued-issuedBefore), 1)
	}
	if wake > m.now+1 && !m.cfg.stepEveryCycle {
		m.fastForward(wake)
	}
}

// fastForward accounts, in one step, the cycles after a zero-issue cycle
// that would repeat it exactly, leaving the clock on the last of them so
// stepCycle runs that cycle's fetch. wake is the earliest cycle the
// issue stage could act differently (issue's return value).
//
// Besides the issue head, only fetch, the cap checks and the resolve
// phase can change a cycle's outcome. With nothing in flight, resolve has
// nothing to do, stores are already drained and a pending fault has
// already surfaced; the exception trigger and done() read only committed
// counts, which do not move while nothing issues (an exception already
// due blocks the skip); and the cache hierarchy reads the clock only
// when accessed. So the span ends at the earliest
// of: wake; the cycle fetch acts again (never if halted or the buffer is
// full, after the outstanding fetch stall otherwise, and at once if it
// would fetch this cycle); the cycle cap; and the sampler's next window
// boundary. Every per-cycle charge of the skipped cycles is applied in
// bulk, so Stats and every observer's output are identical to stepping
// them.
func (m *Machine) fastForward(wake int64) {
	end := wake
	if !m.fetchHalted {
		switch {
		case m.fetchStall > 0:
			end = min(end, m.now+m.fetchStall)
		case m.fbLen() < m.cfg.FetchBufEntries:
			return
		}
	}
	end = min(end, m.maxCycles)
	if m.sampler != nil {
		end = min(end, m.sampler.NextAt())
	}
	if m.infLen() > 0 || m.cfg.ExceptionEveryN > 0 &&
		m.stats.Issued-m.stats.WrongPathIssued >= m.nextException {
		return
	}
	skip := end - m.now - 1
	if skip <= 0 {
		return
	}
	switch m.stallCause {
	case stallEmpty:
		m.stats.EmptyFetchCycles += skip
	case stallOperand:
		m.stats.OperandStallCycles += skip
	case stallBranch:
		m.stats.OperandStallCycles += skip
		m.stats.BranchStallCycles += skip
		m.stallBranch.StallCycles += skip
	case stallResolve:
		m.stats.OperandStallCycles += skip
		m.stats.ResolveStallCycles += skip
		m.stallBranch.StallCycles += skip
	}
	m.stallRun += skip
	if m.attr != nil {
		m.chargeAttr(0, skip)
	}
	if !m.fetchHalted && m.fetchStall > 0 {
		m.fetchStall -= skip
	}
	m.now += skip
}

// closeSampleWindow records the just-finished cycle window and re-arms
// the in-window DBB high-water tracker. Allocation-free (the sampler's
// ring is preallocated).
func (m *Machine) closeSampleWindow() {
	m.sampler.Record(m.now, m.sampleCounters(), m.winDBBHigh)
	m.winDBBHigh = m.dbbOcc
}

// sampleCounters snapshots the cumulative counters the sampler
// differences. Committed is derived as Issued-WrongPathIssued because
// Stats.Committed is only materialized in finishStats; the difference
// telescopes identically.
func (m *Machine) sampleCounters() sample.Counters {
	c := sample.Counters{
		Committed:      m.stats.Issued - m.stats.WrongPathIssued,
		Issued:         m.stats.Issued,
		BrMispredicts:  m.stats.BrMispredicts,
		ResMispredicts: m.stats.ResMispredicts,
		RetMispredicts: m.stats.RetMispredicts,
		Resolves:       m.stats.Resolves,
		Predicts:       m.stats.Predicts,
		Flushes:        m.stats.Flushes,

		StallEmpty:   m.stats.EmptyFetchCycles,
		StallOperand: m.stats.OperandStallCycles,
		StallBranch:  m.stats.BranchStallCycles,
		StallResolve: m.stats.ResolveStallCycles,
		StallFU:      m.stats.FUStallCycles,

		L1IMisses: int64(m.Hier.L1I.Misses),
		L1DMisses: int64(m.Hier.L1D.Misses),
		L2Misses:  int64(m.Hier.L2.Misses),
	}
	if m.attr != nil {
		c.Attr = m.attr.Totals()
	}
	return c
}

// ---- cycle attribution ----

// chargeAttr charges n cycles' slots after the issue stage ran: issued
// slots to base work, the rest to the cause the issue stage noted. Until
// the first post-flush issue, empty slots belong to the mispredicted
// branch being repaired, whatever the front end is doing meanwhile.
func (m *Machine) chargeAttr(issued int, n int64) {
	cause, idx := m.attrCause, m.attrIdx
	if issued == 0 && m.repairStart >= 0 {
		cause, idx = m.attrRepairCause, m.attrRepairIdx
	}
	m.attr.ChargeCycles(n, issued, cause, idx)
}

// attrNoteFrontEnd blames a cycle with nothing issuable: an outstanding
// fetch stall (I-cache miss or exception penalty), an over-subscribed
// DBB, or a plain front-end bubble.
func (m *Machine) attrNoteFrontEnd() {
	switch {
	case m.fetchStall > 0 && m.fetchStallIsICache:
		m.attrCause, m.attrIdx = attr.ICache, 0
	case m.fetchStall > 0:
		m.attrCause, m.attrIdx = attr.Exception, 0
	case m.dbbOcc > m.cfg.DBBEntries:
		m.attrCause, m.attrIdx = attr.DBBFull, 0
	default:
		m.attrCause, m.attrIdx = attr.Fetch, 0
	}
}

// attrNoteOperand blames an operand stall: a BR/RESOLVE in the blocked
// issue window (charged to that branch's condition, mirroring the
// stall-counter taxonomy), else the producer of the first missing operand
// — split out per load PC when the producer is an in-flight load.
func (m *Machine) attrNoteOperand(pd *predecoded) {
	for k := 0; k < m.fbLen() && k < stallWindow; k++ {
		kpd := m.fbAt(k).pd
		if kpd.op == isa.RESOLVE {
			m.attrCause, m.attrIdx = attr.ResolveWindow, int(kpd.branch)
			return
		}
		if kpd.op == isa.BR {
			m.attrCause, m.attrIdx = attr.CondWait, int(kpd.branch)
			return
		}
	}
	for _, r := range pd.uses {
		if m.regReady[r] > m.now {
			if wpc := m.regWriter[r]; wpc >= 0 && m.pre[wpc].flags&pdLoad != 0 {
				m.attrCause, m.attrIdx = attr.LoadWait, int(wpc)
				return
			}
			break
		}
	}
	m.attrCause, m.attrIdx = attr.OperandWait, 0
}

// Run simulates to HALT (or an instruction/cycle cap) and returns stats.
// The returned Stats is detached: nothing in it points into the Machine,
// so holding it does not keep the machine's caches, memory and predictor
// tables alive. An image with an uncompilable opcode is refused before
// the first cycle.
func (m *Machine) Run() (*Stats, error) {
	if m.preErr != nil {
		return m.result(), m.preErr
	}
	m.attachPipeview()
	if m.Sink != nil && m.Hier.OnMiss == nil {
		m.Hier.OnMiss = func(ms cache.Miss) {
			cause := trace.CauseDCache
			if ms.Inst {
				cause = trace.CauseICache
			}
			m.Sink.Emit(trace.Event{Kind: trace.KindCacheMiss, Cause: cause,
				Cycle: m.now, Seq: -1, Addr: ms.Addr, Val: ms.Latency})
		}
	}
	for {
		if m.now >= m.maxCycles {
			return m.result(), fmt.Errorf("pipeline: cycle limit %d reached at pc %d", m.maxCycles, m.fetchPC)
		}
		done, err := m.stepCycle()
		if err != nil {
			return m.result(), err
		}
		if done {
			return m.result(), nil
		}
	}
}

// result finishes the statistics and returns a heap copy of them. The
// hot-path counters stay inline in the Machine (no indirection per bump);
// a shallow copy suffices because no attached report points back into the
// machine: finishStats builds Samples, Attr, Bpred and Pipeview fresh, and
// the PerBranch entries are their own heap objects.
func (m *Machine) result() *Stats {
	m.finishStats()
	st := m.stats
	return &st
}

// finishStats fills the derived/mirrored Stats fields and flushes any
// open stall run.
func (m *Machine) finishStats() {
	m.endStallRun()
	for d, n := range m.fetchToIssue {
		m.stats.FetchToIssue.ObserveN(int64(d), n)
	}
	clear(m.fetchToIssue[:])
	m.stats.Cycles = m.now
	m.stats.Committed = m.stats.Issued - m.stats.WrongPathIssued
	m.stats.L1DMissRate = m.Hier.L1D.MissRate()
	m.stats.L1IMissRate = m.Hier.L1I.MissRate()
	hits, misses := m.btb.Lookups()
	m.stats.BTBHits, m.stats.BTBMisses = int64(hits), int64(misses)
	m.stats.RASUnderflows = int64(m.ras.Underflows())
	if m.sampler != nil {
		m.sampler.Flush(m.now, m.sampleCounters(), m.winDBBHigh)
		m.stats.Samples = m.sampler.Series()
	}
	if m.attr != nil {
		m.stats.Attr = m.attr.Report()
	}
	if m.probe != nil {
		m.stats.Bpred = m.probe.Report(m.pred)
	}
	if m.pview != nil {
		m.pview.Finalize(m.now, m.infLen() == 0)
		m.stats.Pipeview = m.pview.Report()
	}
}

// done reports whether the committed HALT has drained the machine, or the
// committed-instruction cap is reached.
func (m *Machine) done() bool {
	if m.cfg.MaxInstrs > 0 && m.stats.Issued-m.stats.WrongPathIssued >= m.cfg.MaxInstrs {
		return true
	}
	if m.haltSeq >= 0 && m.infLen() == 0 {
		m.stats.Halted = true
		// All speculation resolved: every buffered store is committed.
		m.drainAll()
		return true
	}
	return false
}

// ---- in-flight speculation queue ----

func (m *Machine) infLen() int { return len(m.inflight) - m.infHead }

func (m *Machine) infFront() *specPoint { return &m.inflight[m.infHead] }

// infPush claims a slot at the tail and returns it, compacting consumed
// head space only when the backing storage is full (occupancy is bounded
// by the issue width, since every speculation point resolves the cycle
// after it issues). The slot holds stale data: the caller assigns every
// field, building the speculation point in place.
func (m *Machine) infPush() *specPoint {
	if len(m.inflight) == cap(m.inflight) && m.infHead > 0 {
		n := copy(m.inflight, m.inflight[m.infHead:])
		m.inflight = m.inflight[:n]
		m.infHead = 0
	}
	m.inflight = slices.Grow(m.inflight, 1)
	m.inflight = m.inflight[:len(m.inflight)+1]
	return &m.inflight[len(m.inflight)-1]
}

func (m *Machine) infPop() {
	m.infHead++
	if m.infHead == len(m.inflight) {
		m.inflight, m.infHead = m.inflight[:0], 0
	}
}

func (m *Machine) infClear() {
	m.inflight, m.infHead = m.inflight[:0], 0
}

// ---- register undo journal ----

// jMark returns the absolute journal position; writes recorded at or after
// a speculation point's mark are younger than it.
func (m *Machine) jMark() int64 { return m.jBase + int64(len(m.journal)) }

// journalWrite records the pre-write state of register d.
func (m *Machine) journalWrite(d isa.Reg) {
	m.journal = append(m.journal, regUndo{
		val:    m.st.Regs[d],
		ready:  m.regReady[d],
		writer: m.regWriter[d],
		reg:    d,
		poison: m.st.Poison[d],
	})
}

// rewindJournal undoes register writes newest-first back to mark and
// truncates the journal there, restoring the register file, poison bits
// and scoreboard exactly as they were when the mark was taken.
func (m *Machine) rewindJournal(mark int64) {
	tgt := int(mark - m.jBase)
	for i := len(m.journal) - 1; i >= tgt; i-- {
		u := &m.journal[i]
		m.st.Regs[u.reg] = u.val
		m.st.Poison[u.reg] = u.poison
		m.regReady[u.reg] = u.ready
		m.regWriter[u.reg] = u.writer
	}
	m.journal = m.journal[:tgt]
}

// releaseJournal discards undo records older than the oldest in-flight
// speculation point — no surviving mark can reach them. The copy-down
// moves at most the live window (bounded by the issue width), so it
// amortizes to O(1) per committed speculation point.
func (m *Machine) releaseJournal() {
	keep := m.jBase + int64(len(m.journal))
	if m.infLen() > 0 {
		keep = m.infFront().jMark
	}
	cut := int(keep - m.jBase)
	if cut <= 0 {
		return
	}
	n := copy(m.journal, m.journal[cut:])
	m.journal = m.journal[:n]
	m.jBase = keep
}

// ---- resolution ----

func (m *Machine) resolve() {
	for m.infLen() > 0 && m.infFront().resolveAt <= m.now {
		// sp stays a pointer into the queue's backing array: infPop only
		// advances the head, and nothing pushes before this iteration is
		// done with it.
		sp := m.infFront()
		m.infPop()
		fe := &sp.fe
		pd := fe.pd
		addr := m.im.PCAddr(fe.pc)

		switch pd.op {
		case isa.BR:
			m.stats.CondBranches++
			bs := m.branchStats(int(pd.branch))
			bs.Execs++
			if sp.mispredict {
				m.stats.BrMispredicts++
				bs.Mispredicts++
				m.pred.Restore(sp.spec.histCkpt)
				m.pred.PushHistory(sp.actualTaken)
			}
			m.pred.Update(addr, sp.actualTaken, sp.spec.meta)
			if m.probe != nil {
				m.probe.ObserveResolve(int(pd.branch), sp.actualTaken, sp.mispredict, &sp.spec.meta)
			}
			if sp.actualTaken {
				m.btb.Insert(addr, int(pd.target))
			}
		case isa.RESOLVE:
			m.stats.Resolves++
			bs := m.branchStats(int(pd.branch))
			bs.Execs++
			if e, ok := m.DBB.Read(sp.spec.dbbIdx); ok {
				if sp.mispredict {
					// Repair history: rewind to the predict's checkpoint
					// and push the actual outcome of the original branch.
					m.pred.Restore(e.histCkpt)
					m.pred.PushHistory(sp.actualTaken)
				}
				m.pred.Update(e.pc, sp.actualTaken, e.meta)
				if m.probe != nil {
					m.probe.ObserveResolve(int(pd.branch), sp.actualTaken, sp.mispredict, &e.meta)
				}
			} else if m.probe != nil {
				// The DBB entry was recycled or invalidated: the update is
				// suppressed, but the resolution still counts toward the
				// outcome stream and the conservation books.
				m.probe.ObserveResolve(int(pd.branch), sp.actualTaken, sp.mispredict, nil)
			}
			if sp.mispredict {
				m.stats.ResMispredicts++
				bs.Mispredicts++
			}
		case isa.RET:
			if sp.mispredict {
				m.stats.RetMispredicts++
			}
		}

		if sp.mispredict {
			if m.Sink != nil {
				ins := &m.im.Instrs[fe.pc]
				cause := trace.CauseBranch
				switch pd.op {
				case isa.RESOLVE:
					cause = trace.CauseResolve
					m.Sink.Emit(trace.Event{Kind: trace.KindResolveFire, Cause: cause, Cycle: m.now,
						Seq: fe.seq, PC: fe.pc, Ins: *ins, Val: int64(sp.redirectPC)})
				case isa.RET:
					cause = trace.CauseReturn
				}
				m.Sink.Emit(trace.Event{Kind: trace.KindMispredict, Cause: cause, Cycle: m.now,
					Seq: fe.seq, PC: fe.pc, Ins: *ins, Val: int64(sp.redirectPC)})
			}
			m.flush(sp)
			return
		}
		m.releaseJournal()
		if m.cfg.debugCheckpoints {
			delete(m.debugSnaps, fe.seq)
		}
		if m.Sink != nil {
			m.Sink.Emit(trace.Event{Kind: trace.KindCommit, Cycle: m.now,
				Seq: fe.seq, PC: fe.pc, Ins: m.im.Instrs[fe.pc]})
		}
	}
}

// flush squashes everything younger than sp and redirects fetch.
func (m *Machine) flush(sp *specPoint) {
	wrongPath := m.stats.Issued - sp.issuedSnapshot
	pd := sp.fe.pd
	if m.Sink != nil {
		cause := trace.CauseReturn
		switch pd.op {
		case isa.BR:
			cause = trace.CauseBranch
		case isa.RESOLVE:
			cause = trace.CauseResolve
		}
		m.Sink.Emit(trace.Event{Kind: trace.KindSquash, Cause: cause, Cycle: m.now,
			Seq: sp.fe.seq, PC: sp.fe.pc, Val: wrongPath + int64(m.fbLen())})
	}
	if m.repairStart < 0 {
		m.repairStart = m.now
	}
	if m.attr != nil {
		// Blame the refill bubbles ahead on this flush, and re-charge the
		// wrong-path slots it already wasted from base work to the
		// mispredicted branch.
		cause, id := attr.RetMispredict, 0
		switch pd.op {
		case isa.BR:
			cause, id = attr.BrMispredict, int(pd.branch)
		case isa.RESOLVE:
			cause, id = attr.ResMispredict, int(pd.branch)
		}
		m.attrRepairCause, m.attrRepairIdx = cause, id
		m.attr.MoveWrongPath(cause, id, wrongPath)
	}
	m.stats.WrongPathIssued += wrongPath
	m.stats.SquashedFetched += int64(m.fbLen())
	m.fbClear()
	m.infClear() // all remaining are younger

	// Squash buffered stores younger than the speculation point, and
	// invalidate the last-writer index wholesale (generation bump).
	keep := m.sb[:0]
	for _, e := range m.sb {
		if e.seq < sp.fe.seq {
			keep = append(keep, e)
		}
	}
	m.sb = keep
	m.sbGen++

	// Rewind wrong-path register writes, then discard the now-dead
	// journal (nothing is in flight anymore).
	m.rewindJournal(sp.jMark)
	m.releaseJournal()
	m.st.Halted = sp.halted
	m.verifyCheckpoint(sp)

	if m.haltSeq > sp.fe.seq {
		m.haltSeq = -1
	}
	if m.pendFaultSeq > sp.fe.seq {
		m.pendFaultSeq, m.pendFaultErr = -1, nil
	}

	m.ras.Restore(sp.spec.rasCkpt)
	m.DBB.RestoreTail(sp.spec.dbbTailCkpt)
	m.dbbOcc = sp.spec.dbbOccCkpt

	m.fetchPC = sp.redirectPC
	m.fetchHalted = false
	m.fetchStall = 0
	m.lastFetchLine = math.MaxUint64
	m.underMispred = true
	m.stats.Flushes++
}

// verifyCheckpoint cross-checks the journal-rewound state against the full
// snapshot taken at issue (Config.debugCheckpoints only; no-op otherwise).
func (m *Machine) verifyCheckpoint(sp *specPoint) {
	if !m.cfg.debugCheckpoints {
		return
	}
	snap := m.debugSnaps[sp.fe.seq]
	if snap == nil {
		panic(fmt.Sprintf("pipeline: no debug snapshot for speculation point seq %d", sp.fe.seq))
	}
	if m.st.Regs != snap.regs || m.st.Poison != snap.poison ||
		m.regReady != snap.regReady || m.st.Halted != snap.halted {
		panic(fmt.Sprintf("pipeline: undo-log restore diverged from full snapshot at seq %d (pc %d)",
			sp.fe.seq, sp.fe.pc))
	}
	clear(m.debugSnaps) // every other pending snapshot was squashed
}

// commitFaultCheck surfaces the pending deferred fault once its
// instruction is no longer covered by any older speculation point (i.e. it
// committed).
func (m *Machine) commitFaultCheck() error {
	if m.infLen() == 0 || m.infFront().fe.seq > m.pendFaultSeq {
		if m.Sink != nil {
			var addr uint64
			var f *mem.Fault
			if errors.As(m.pendFaultErr, &f) {
				addr = f.Addr
			}
			m.Sink.Emit(trace.Event{Kind: trace.KindFault, Cycle: m.now,
				Seq: m.pendFaultSeq, Addr: addr})
		}
		return fmt.Errorf("pipeline: architectural fault at seq %d: %w", m.pendFaultSeq, m.pendFaultErr)
	}
	return nil
}

// ---- store buffer drain ----

func (m *Machine) frontier() int64 {
	if m.infLen() > 0 {
		return m.infFront().fe.seq
	}
	return math.MaxInt64
}

func (m *Machine) drainStores() {
	f := m.frontier()
	i := 0
	for i < len(m.sb) && m.sb[i].seq < f {
		m.mem.MustStore(m.sb[i].addr, m.sb[i].val)
		i++
	}
	if i > 0 {
		n := copy(m.sb, m.sb[i:])
		m.sb = m.sb[:n]
	}
}

func (m *Machine) drainAll() {
	for _, e := range m.sb {
		m.mem.MustStore(e.addr, e.val)
	}
	m.sb = m.sb[:0]
}

// ---- issue ----

// Issue-head stall causes for run-length telemetry. The taxonomy mirrors
// the scalar *StallCycles counters: a "run" is a maximal streak of
// zero-issue cycles blamed on the same cause, ended by an issue or a
// cause change.
const (
	stallNone = iota
	stallEmpty
	stallOperand
	stallBranch
	stallResolve
	stallFU
)

// noteStall accounts one zero-issue cycle to cause, extending or starting
// a run.
func (m *Machine) noteStall(cause uint8) {
	if cause != m.stallCause {
		m.endStallRun()
		m.stallCause = cause
	}
	m.stallRun++
}

// endStallRun closes the open stall run, recording its length in the
// matching histogram.
func (m *Machine) endStallRun() {
	if m.stallRun == 0 {
		return
	}
	switch m.stallCause {
	case stallEmpty:
		m.stats.StallRunEmpty.Observe(m.stallRun)
	case stallOperand:
		m.stats.StallRunOperand.Observe(m.stallRun)
	case stallBranch:
		m.stats.StallRunBranch.Observe(m.stallRun)
	case stallResolve:
		m.stats.StallRunResolve.Observe(m.stallRun)
	case stallFU:
		m.stats.StallRunFU.Observe(m.stallRun)
	}
	m.stallRun, m.stallCause = 0, stallNone
}

// scoreboard holds each register's ready cycle, indexed by any isa.Reg:
// NoReg's slot is never written, so an absent operand always reads ready
// and the operand check needs neither a NoReg test nor a bounds check.
type scoreboard [1 << 8]int64

// operandsReady reports whether all of pd's source operands are ready.
func (m *Machine) operandsReady(pd *predecoded) bool {
	return max(m.regReady[pd.uses[0]], m.regReady[pd.uses[1]], m.regReady[pd.uses[2]]) <= m.now
}

// operandWake returns the earliest cycle at which one of pd's missing
// operands becomes ready: the next cycle the head's readiness, and so its
// operand-stall attribution, can change.
func (m *Machine) operandWake(pd *predecoded) int64 {
	wake := int64(math.MaxInt64)
	for _, r := range pd.uses {
		if m.regReady[r] > m.now {
			wake = min(wake, m.regReady[r])
		}
	}
	return wake
}

// stallWindow is how many fetch-buffer entries, from the head, an
// operand stall scans for the BR/RESOLVE it is delaying.
const stallWindow = 6

// headStall is the classification of the issue head's operand stall:
// the head's seq, the cycle its operands wake, the stall cause and the
// branch charged for it. It holds while the same entry is at the head and
// the clock is before wake: nothing issues past a stalled head, so its
// operands' ready times cannot move, and a flush or exception replaces the
// head with a newer seq. The cached cause is only kept when the scan that
// found it cannot change while the head is unchanged: it found a
// BR/RESOLVE (entries up to it are fixed), or it covered the whole window.
// seq is -1 when nothing is cached.
type headStall struct {
	seq, wake int64
	cause     uint8
	branch    *BranchStats
}

func (h *headStall) holds(seq, now int64) bool { return seq == h.seq && now < h.wake }

// operandStall charges one head-of-line operand-stall cycle and returns
// the cycle the head's operands wake. The stall is attributed to the
// conditional control point it is delaying: the first BR/RESOLVE in the
// blocked window (the stalled instruction is usually its condition slice).
// The classification is re-derived only when the cached one does not hold
// (and never cached under stepEveryCycle, so the stepping oracle checks
// it).
func (m *Machine) operandStall(fe *fetchEntry) int64 {
	hs := &m.headStall
	if !hs.holds(fe.seq, m.now) {
		n := min(m.fbLen(), stallWindow)
		hs.cause, hs.branch = stallOperand, nil
		settled := n == stallWindow
		for k := 0; k < n; k++ {
			kpd := m.fbAt(k).pd
			if kpd.op == isa.RESOLVE {
				hs.cause = stallResolve
			} else if kpd.op == isa.BR {
				hs.cause = stallBranch
			} else {
				continue
			}
			hs.branch = m.branchStats(int(kpd.branch))
			settled = true
			break
		}
		hs.wake = m.operandWake(fe.pd)
		hs.seq = -1
		if settled && !m.cfg.stepEveryCycle {
			hs.seq = fe.seq
		}
	}
	m.stats.OperandStallCycles++
	switch hs.cause {
	case stallResolve:
		m.stats.ResolveStallCycles++
	case stallBranch:
		m.stats.BranchStallCycles++
	}
	if hs.branch != nil {
		m.stallBranch = hs.branch
		hs.branch.StallCycles++
	}
	m.noteStall(hs.cause)
	return hs.wake
}

// issue runs the issue stage. On a zero-issue cycle that is not a
// structural stall it returns the earliest later cycle at which the issue
// stage could act differently, absent a fetch (math.MaxInt64 for an empty
// buffer); otherwise it returns 0.
func (m *Machine) issue() (wake int64) {
	issued := 0
	var fuUsed [isa.NumFUClasses]int
	for m.fbLen() > 0 && issued < m.cfg.Width {
		fe := m.fbAt(0)
		if fe.fetchedAt+m.feDelay > m.now {
			if issued == 0 {
				m.stats.EmptyFetchCycles++
				m.noteStall(stallEmpty)
				wake = fe.fetchedAt + m.feDelay
			}
			if m.attr != nil {
				m.attrNoteFrontEnd()
			}
			return wake
		}
		pd := fe.pd
		if m.headStall.holds(fe.seq, m.now) || !m.operandsReady(pd) {
			if issued == 0 {
				wake = m.operandStall(fe)
			}
			if m.attr != nil {
				m.attrNoteOperand(pd)
			}
			return wake
		}
		fu := pd.fu
		if fuUsed[fu] >= m.fuLimit[fu] {
			if issued == 0 {
				m.stats.FUStallCycles++
				m.noteStall(stallFU)
			}
			if m.attr != nil {
				m.attrCause, m.attrIdx = attr.FUContention, 0
			}
			return 0
		}
		fuUsed[fu]++
		issued++
		// fe/fs stay valid across the pop: fbPop only advances the head,
		// and nothing pushes until the next fetch stage.
		fs := &m.fbSpec[m.fbHead]
		m.fbPop()
		m.issueOne(fe, fs, pd)
		if pd.op == isa.HALT {
			// Post-HALT drain: remaining slots are front-end bubbles.
			if m.attr != nil {
				m.attrCause, m.attrIdx = attr.Fetch, 0
			}
			return 0
		}
	}
	if issued == 0 && m.fbLen() == 0 {
		m.stats.EmptyFetchCycles++
		m.noteStall(stallEmpty)
		wake = math.MaxInt64
	}
	if m.attr != nil && m.fbLen() == 0 {
		m.attrNoteFrontEnd()
	}
	return wake
}

func (m *Machine) issueOne(fe *fetchEntry, fs *fetchSpec, pd *predecoded) {
	m.stats.Issued++
	if d := m.now - fe.fetchedAt; uint64(d) < uint64(len(m.fetchToIssue)) {
		m.fetchToIssue[d]++
	} else {
		m.stats.FetchToIssue.Observe(d)
	}
	if m.stallRun > 0 {
		m.endStallRun()
	}
	if m.repairStart >= 0 {
		m.stats.RepairPenalty.Observe(m.now - m.repairStart)
		m.repairStart = -1
	}
	if m.Sink != nil {
		m.Sink.Emit(trace.Event{Kind: trace.KindIssue, Cycle: m.now,
			Seq: fe.seq, PC: fe.pc, Ins: m.im.Instrs[fe.pc]})
	}

	isSpec := pd.flags&pdSpec != 0
	var jmark int64
	var wasHalted bool
	if isSpec {
		jmark, wasHalted = m.jMark(), m.st.Halted
		if m.cfg.debugCheckpoints {
			if m.debugSnaps == nil {
				m.debugSnaps = map[int64]*debugSnap{}
			}
			m.debugSnaps[fe.seq] = &debugSnap{
				regs: m.st.Regs, poison: m.st.Poison,
				regReady: m.regReady, halted: m.st.Halted,
			}
		}
	}
	// Journal the pre-write state only when a mark could reach it: a
	// write with nothing in flight and no spec point issuing here can
	// never be rewound (every future mark is taken after it), so the
	// busiest path skips the journal entirely. A spec instruction takes
	// its own mark above, before its def write, so it always journals.
	if d := pd.def; d != isa.NoReg && (isSpec || m.infLen() > 0) {
		m.journalWrite(d)
	}

	m.st.PC = fe.pc
	m.curSeq = fe.seq
	var res exec.Result
	var err error
	switch {
	case m.cfg.stepOracle:
		res, err = exec.Step(m.st, &m.im.Instrs[fe.pc], false)
	case pd.pure != nil:
		// Pure register op: no fault, no memory access, no speculation
		// point — nothing downstream reads res or err, so skip the
		// kernel's Result/error return entirely.
		pd.pure(m.st)
		m.st.PC = fe.pc + 1
	default:
		res, err = pd.kernel(m.st)
	}
	if err != nil && m.pendFaultSeq < 0 {
		// Defer: real only if this instruction commits. Copy a sentinel
		// Fault into stable storage so later wrong-path probes (which
		// reuse the sentinel) cannot clobber the deferred one.
		perr := err
		if f, ok := perr.(*mem.Fault); ok {
			m.pendFault = *f
			perr = &m.pendFault
		}
		m.pendFaultSeq, m.pendFaultErr = fe.seq, perr
	}

	completion := m.now + int64(pd.latency)
	if res.IsMem && err == nil {
		switch {
		case pd.flags&pdLoad != 0:
			if _, fwd := m.sbLookup(res.MemAddr); fwd {
				completion = m.now + int64(m.cfg.Hier.L1D.Latency)
			} else {
				completion = m.Hier.Data(m.now, res.MemAddr)
			}
		case pd.flags&pdStore != 0:
			m.Hier.Data(m.now, res.MemAddr) // address/tag access; nothing waits
		}
	}
	if d := pd.def; d != isa.NoReg {
		m.regReady[d] = completion
		m.regWriter[d] = int32(fe.pc)
	}
	if m.Sink != nil {
		// Writeback telemetry: emitted now (the scoreboard ready time is
		// known at issue), with the writeback cycle in Val.
		m.Sink.Emit(trace.Event{Kind: trace.KindComplete, Cycle: m.now,
			Seq: fe.seq, PC: fe.pc, Val: completion})
	}

	if isSpec {
		sp := m.infPush()
		sp.fe, sp.spec = *fe, *fs
		sp.resolveAt = m.now + 1
		sp.halted, sp.jMark = wasHalted, jmark
		sp.actualTaken, sp.mispredict = false, false
		switch pd.op {
		case isa.BR:
			sp.actualTaken = res.CondVal
			sp.mispredict = err == nil && res.CondVal != fs.predTaken
			sp.redirectPC = res.NextPC
		case isa.RESOLVE:
			sp.actualTaken = res.CondVal
			sp.mispredict = err == nil && res.Taken
			sp.redirectPC = res.NextPC
		case isa.RET:
			sp.mispredict = err == nil && res.NextPC != fs.predTarget
			sp.redirectPC = res.NextPC
		}
		sp.issuedSnapshot = m.stats.Issued
	}

	if pd.op == isa.HALT {
		m.haltSeq = fe.seq
	}
}

// branchStats is the hot-path face of stats.branch: same map entries,
// BranchID-indexed memo.
func (m *Machine) branchStats(id int) *BranchStats {
	if id < len(m.brStats) {
		if b := m.brStats[id]; b != nil {
			return b
		}
	} else {
		nb := make([]*BranchStats, id+1)
		copy(nb, m.brStats)
		m.brStats = nb
	}
	b := m.stats.branch(id)
	m.brStats[id] = b
	return b
}

// ---- fetch buffer queue ----

// ringSize rounds n up to a power of two so ring indexes wrap with a
// mask instead of a modulo.
func ringSize(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

func (m *Machine) fbLen() int { return m.fbCnt }

// fbAt returns the k-th entry from the head (k < fbLen()).
func (m *Machine) fbAt(k int) *fetchEntry { return &m.fb[(m.fbHead+k)&m.fbMask] }

// fbPush appends at the tail of the ring; occupancy is bounded by
// FetchBufEntries (<= len(m.fb)), so the slot is always free. It returns
// the entry's cold slot, which holds stale garbage: callers pushing a
// speculation op must assign the whole fetchSpec; everyone else leaves
// it untouched (and it is never read).
func (m *Machine) fbPush(fe fetchEntry) *fetchSpec {
	slot := (m.fbHead + m.fbCnt) & m.fbMask
	m.fb[slot] = fe
	m.fbCnt++
	return &m.fbSpec[slot]
}

func (m *Machine) fbPop() {
	m.fbHead = (m.fbHead + 1) & m.fbMask
	m.fbCnt--
}

func (m *Machine) fbClear() {
	m.fbHead, m.fbCnt = 0, 0
}

// ---- fetch ----

func (m *Machine) fetch() {
	if m.fetchHalted {
		return
	}
	if m.fetchStall > 0 {
		m.fetchStall--
		return
	}
	fetched := 0
	for fetched < m.cfg.Width && m.fbLen() < m.cfg.FetchBufEntries {
		if uint(m.fetchPC) >= uint(len(m.pre)) {
			// Wrong-path fetch ran off the image; wait for the flush.
			m.fetchHalted = true
			return
		}
		addr := m.im.PCAddr(m.fetchPC)
		if line := addr & m.fetchLineMask; line != m.lastFetchLine {
			extra := m.Hier.Inst(addr)
			m.lastFetchLine = line
			if extra > 0 {
				m.stats.ICacheMisses++
				if m.underMispred {
					m.stats.ICacheMissUnderMispred++
				}
				m.underMispred = false
				m.fetchStall = extra
				m.fetchStallIsICache = true
				return
			}
			m.underMispred = false
		}

		pd := &m.pre[m.fetchPC]
		fe := fetchEntry{
			seq:       m.seq,
			pc:        m.fetchPC,
			fetchedAt: m.now,
			pd:        pd,
		}
		m.seq++
		fetched++
		m.stats.Fetched++
		if m.Sink != nil {
			m.Sink.Emit(trace.Event{Kind: trace.KindFetch, Cycle: m.now,
				Seq: fe.seq, PC: fe.pc, Ins: m.im.Instrs[fe.pc]})
		}

		if pd.flags&pdSteer == 0 {
			m.fbPush(fe)
			m.fetchPC++
			continue
		}
		switch pd.op { // exactly the pdSteer ops
		case isa.JMP:
			m.fbPush(fe)
			m.fetchPC = int(pd.target)
			return // taken redirect ends the fetch group
		case isa.CALL:
			m.ras.Push(m.fetchPC + 1)
			m.fbPush(fe)
			m.fetchPC = int(pd.target)
			return
		case isa.RET:
			rasCkpt := m.ras.Checkpoint()
			tgt, ok := m.ras.Pop()
			if !ok {
				tgt = m.fetchPC + 1 // underflow: sequential guess
			}
			*m.fbPush(fe) = fetchSpec{
				predTarget:  tgt,
				histCkpt:    m.pred.Checkpoint(),
				rasCkpt:     rasCkpt,
				dbbTailCkpt: m.DBB.Tail(),
			}
			m.fetchPC = tgt
			return
		case isa.BR:
			fs := fetchSpec{
				histCkpt:    m.pred.Checkpoint(),
				rasCkpt:     m.ras.Checkpoint(),
				dbbTailCkpt: m.DBB.Tail(),
				dbbOccCkpt:  m.dbbOcc,
			}
			taken, meta := m.pred.Predict(addr)
			m.pred.PushHistory(taken)
			m.btb.Lookup(addr)
			fs.predTaken, fs.meta = taken, meta
			*m.fbPush(fe) = fs
			if taken {
				m.fetchPC = int(pd.target)
				return
			}
			m.fetchPC++
		case isa.PREDICT:
			// Consumed by the front end: steer fetch, fill the DBB, drop.
			ckpt := m.pred.Checkpoint()
			taken, meta := m.pred.Predict(addr)
			m.pred.PushHistory(taken)
			m.DBB.Insert(addr, taken, meta, ckpt)
			m.stats.Predicts++
			if m.attr != nil && m.dbbOcc >= m.cfg.DBBEntries {
				m.attr.NoteDBBOverflow()
			}
			m.dbbOcc++
			if m.dbbOcc > m.stats.MaxDBBOccupancy {
				m.stats.MaxDBBOccupancy = m.dbbOcc
			}
			if m.dbbOcc > m.winDBBHigh {
				m.winDBBHigh = m.dbbOcc
			}
			m.stats.DBBOccupancy.Observe(int64(m.dbbOcc))
			if m.Sink != nil {
				m.Sink.Emit(trace.Event{Kind: trace.KindDBBPush, Cycle: m.now,
					Seq: fe.seq, PC: fe.pc, Ins: m.im.Instrs[fe.pc], Val: int64(m.dbbOcc)})
			}
			if taken {
				m.fetchPC = int(pd.target)
				return
			}
			m.fetchPC++
		case isa.RESOLVE:
			// Statically predicted not-taken; carries the DBB tail index.
			*m.fbPush(fe) = fetchSpec{
				histCkpt:    m.pred.Checkpoint(),
				rasCkpt:     m.ras.Checkpoint(),
				dbbIdx:      m.DBB.Tail(),
				dbbTailCkpt: m.DBB.Tail(),
				dbbOccCkpt:  m.dbbOcc,
			}
			if m.dbbOcc > 0 {
				m.dbbOcc--
			}
			m.stats.DBBOccupancy.Observe(int64(m.dbbOcc))
			if m.Sink != nil {
				m.Sink.Emit(trace.Event{Kind: trace.KindDBBPop, Cycle: m.now,
					Seq: fe.seq, PC: fe.pc, Ins: m.im.Instrs[fe.pc], Val: int64(m.dbbOcc)})
			}
			m.fetchPC++
		case isa.HALT:
			m.fbPush(fe)
			m.fetchHalted = true
			return
		}
	}
}
