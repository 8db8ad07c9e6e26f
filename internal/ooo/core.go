package ooo

import (
	"fmt"
	"math"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// notReady is the completeAt sentinel of an un-issued uop.
const notReady = int64(math.MaxInt64 / 4)

// freedGSeq marks a pooled (recycled) UOp: no live instruction ever
// carries this sequence number, so a stale producer pointer held by a
// consumer can detect recycling by comparing the GSeq it recorded at
// rename time against the pointee's current one.
const freedGSeq = ^uint64(0)

// sleepForever marks a candidate blocked on an unissued producer: it
// has no computable wake time, so it sleeps until the producer's
// startExec walks its waiter chain (local producer) or the coordinator
// calls WakeExt (remote producer).
const sleepForever = int64(1) << 62

// UOp is one in-flight instruction. The timing fields are written by
// the pipeline; hooks implementations must treat UOps as read-only.
// UOps are pooled: a committed or squashed uop is recycled for a later
// fetch, so holding a *UOp across commit is only safe together with
// the GSeq it was observed under (see prodGSeq).
type UOp struct {
	Item    FetchItem
	Cluster int

	dispatchReady int64
	dispatched    bool
	issued        bool
	completeAt    int64

	// Dataflow: for each real source (srcRegs[:nsrc]), either a local
	// producer uop or an external dependence resolved through hooks.
	// prodGSeq records the producer's sequence number at rename time:
	// if the pointee's GSeq no longer matches, the producer committed
	// and was recycled, which means its value is architectural state.
	nsrc     int
	srcRegs  [3]isa.Reg
	prods    [3]*UOp
	prodGSeq [3]uint64
	ext      [3]bool
	// waitSrc caches the index of the source that blocked the last
	// operandsReady call (-1: none); see operandsReady for why checking
	// it first is exact.
	waitSrc int8
	// wakeAt is the earliest cycle the blocked source can answer ready:
	// the exact ready time when blocked on an issued local producer
	// (its schedule is fixed), sleepForever when blocked on an unissued
	// one (startExec wakes the waiter chain), and ExtReadyAt's binding
	// answer when blocked on an external source (WakeExt can bring it
	// forward). The issue scan skips the uop until then; see srcReady
	// for why that is exact.
	wakeAt int64
	// Producer-issue wakeup chain: waiters heads the intrusive list of
	// uops sleeping until THIS uop issues; nextWaiter links a sleeping
	// uop into its blocking producer's list, and waitingOn records that
	// producer's gseq (freedGSeq: not enqueued). SquashFrom purges
	// squashed entries from surviving chains before any uop is recycled,
	// so a live chain never crosses a recycled link.
	waiters    *UOp
	nextWaiter *UOp
	waitingOn  uint64

	// Memory state: the store this load forwarded from, by sequence
	// number (valid if hasFwd) — the store may commit and be recycled
	// while the load is still in flight.
	fwdGSeq uint64
	hasFwd  bool

	mispredicted bool // branch mispredicted by the internal front end
}

// DI returns the architectural instruction record.
func (u *UOp) DI() *isa.DynInst { return u.Item.DI }

// GSeq returns the global program-order sequence number.
func (u *UOp) GSeq() uint64 { return u.Item.GSeq }

// Issued reports whether the uop has issued, and CompleteAt its
// completion cycle (valid once issued).
func (u *UOp) Issued() bool      { return u.issued }
func (u *UOp) CompleteAt() int64 { return u.completeAt }

// Hooks is the extension point the Fg-STP coordinator uses to couple
// two cores. All methods are called synchronously from Cycle. A nil
// Hooks yields a self-contained core.
type Hooks interface {
	// ExtReadyAt returns the cycle at which source srcIdx of u (whose
	// producer is not local to this core) becomes usable; any cycle
	// <= now means ready. A later answer is binding: the core does not
	// poll that source again before it unless WakeExt wakes u earlier.
	// So answer a memoised delivery with its cycle, a refusal that may
	// lift at any cycle (an injected channel stall) with now+1, and a
	// producer that has not issued with NoEvent — and then call WakeExt
	// when it issues, and whenever a delivery answered before is
	// forgotten.
	ExtReadyAt(u *UOp, srcIdx int, now int64) int64
	// LoadGate reports whether the load u may issue at now, considering
	// cross-core memory ordering. speculative marks issues that bypass
	// unresolved remote stores (squashable).
	LoadGate(u *UOp, now int64) (ok, speculative bool)
	// LoadExtraLatency returns extra execution cycles for load u
	// (cross-core store forwarding).
	LoadExtraLatency(u *UOp) int
	// OnIssue fires when u starts execution.
	OnIssue(u *UOp, now int64)
	// OnComplete fires the cycle u's result is computed (scheduled at
	// issue time; fired when the core observes completion).
	OnComplete(u *UOp, now int64)
	// CanCommit gates commit of u (global program-order commit).
	CanCommit(u *UOp, now int64) bool
	// GateOpenAt is CanCommit's lookahead for the event-driven time
	// advance: given the ROB-head sequence number g, the earliest cycle
	// >= now at which CanCommit could allow g to retire, assuming no
	// state changes before then, or NoEvent when that cycle is not
	// computable from current state (the change that opens the gate is
	// then itself an event on some core, which ends the skip).
	GateOpenAt(g uint64, now int64) int64
	// OnCommit fires when u commits. The uop is recycled when the hook
	// returns: implementations must not retain the pointer.
	OnCommit(u *UOp, now int64)
	// OnViolation reports a local memory-order violation at gseq.
	// Return true if the coordinator takes responsibility for the
	// squash (both cores); false lets the core squash itself.
	OnViolation(gseq uint64, now int64) bool
}

// issueBudget tracks one cluster's per-cycle issue resources.
type issueBudget struct{ alu, muldiv, fp, ld, st, slots int }

// Core is one out-of-order core (or one fused two-cluster core).
type Core struct {
	cfg    Config
	lat    [isa.NumClasses]isa.Latency
	hier   *mem.Hierarchy
	stream Stream
	hooks  Hooks
	pred   *bpred.Predictor
	dep    *DepPred

	fetchq   uopRing
	fetchCap int
	rob      uopRing
	lq, sq   uopRing
	rat      [isa.NumRegs]*UOp
	iqCount  []int

	// wtab is the window-relative GSeq lookup (replacing a per-gseq
	// map): slot g&wmask holds the in-flight uop with sequence number
	// g. Sized past the maximum live GSeq span (the sequencer window,
	// or ROB+fetch buffer), two live uops never collide; lookups verify
	// the stored GSeq so aliasing with long-committed producers reads
	// as "not in flight".
	wtab  []*UOp
	wmask uint64

	// pool is the UOp free list, prefilled to the maximum in-flight
	// population so the steady-state fetch path never allocates. defq
	// holds committed uops of a clustered core until the cross-cluster
	// bypass window closes (consumers in the other cluster may still
	// poll their completion time).
	pool []*UOp
	defq uopRing

	// cand lists dispatched-but-unissued uops in GSeq order: the issue
	// stage scans only these instead of the whole ROB. budgets is the
	// per-cluster issue-resource scratch reused every cycle, reset from
	// the full per-cluster budget each scan.
	cand    []*UOp
	budgets []issueBudget
	budget  issueBudget

	// scanIdle records that the last issue scan found every candidate
	// sleeping; nextWake is the earliest of their wake times. While set,
	// the issue stage skips the scan entirely until nextWake, a dispatch
	// appends a fresh candidate, a squash rewrites the list, or WakeExt
	// brings a wake time forward.
	scanIdle bool
	nextWake int64

	// finished counts the ROB-front entries OldestUnfinished has seen
	// finished as of cycle finishedAt. Being finished is monotone in the
	// cycle, so the next query resumes there instead of at the head;
	// commit pops finished entries (decrement) and squash truncates the
	// back (clamp).
	finished   int
	finishedAt int64

	// dispatched counts dispatched uops; with the fetch, issue, retire
	// and squash counters it makes up Activity.
	dispatched uint64

	// sqUnissued counts unissued stores in the SQ; sqOldestUnissued is
	// the GSeq of the oldest one (the disambiguation watermark): loads
	// older than it skip the unknown-address scan entirely.
	sqUnissued       int
	sqOldestUnissued uint64

	fetchStallUntil int64
	lastFetchLine   uint64

	// Mispredicted-branch fetch block, tracked by sequence number (not
	// pointer: the branch may commit and be recycled while fetch is
	// still stalled). branchResume stays notReady until the branch
	// issues, then holds its redirect cycle.
	branchActive bool
	branchGSeq   uint64
	branchResume int64

	// Unpipelined unit reservations, per cluster.
	mulDivBusy [][]int64
	fpDivBusy  [][]int64

	// Oracle disambiguation state (DepPredBits == -1): pending store
	// addresses by word address, maintained from the trace.
	oracle bool

	pendingViolation uint64 // gseq of load to squash after issue stage, 0=none
	hasViolation     bool

	rpt Report

	// sink, when non-nil, receives issue/commit/squash pipeline events
	// (see internal/metrics); nil costs one comparison per event site.
	sink metrics.Sink
}

// NewCore builds a core over its memory hierarchy and fetch stream.
// hooks may be nil. It reports an error on an invalid configuration.
func NewCore(cfg Config, hier *mem.Hierarchy, stream Stream, hooks Hooks) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fetchCap := cfg.FetchWidth * (cfg.FrontendDepth + 1)
	// Window-table sizing: strictly larger than the largest possible
	// live GSeq span. Internally sequenced cores hold a contiguous run
	// of at most ROB+fetch-buffer trace indexes; externally sequenced
	// ones hold gseqs within the global lookahead window (doubled for
	// slack around squash edges).
	span := cfg.ROBSize + fetchCap + 1
	if s := 2 * cfg.GSeqWindow; s > span {
		span = s
	}
	wsize := 1
	for wsize < span {
		wsize <<= 1
	}
	defCap := 0
	if cfg.Clusters > 1 {
		defCap = cfg.CommitWidth*(cfg.CrossClusterBypass+2) + 8
	}
	c := &Core{
		cfg:              cfg,
		lat:              cfg.latencies(),
		hier:             hier,
		stream:           stream,
		hooks:            hooks,
		dep:              NewDepPred(cfg.DepPredBits),
		fetchq:           newUOpRing(fetchCap),
		fetchCap:         fetchCap,
		rob:              newUOpRing(cfg.ROBSize),
		lq:               newUOpRing(cfg.LQSize),
		sq:               newUOpRing(cfg.SQSize),
		wtab:             make([]*UOp, wsize),
		wmask:            uint64(wsize - 1),
		cand:             make([]*UOp, 0, cfg.ROBSize),
		budgets:          make([]issueBudget, cfg.Clusters),
		iqCount:          make([]int, cfg.Clusters),
		sqOldestUnissued: freedGSeq,
		oracle:           cfg.DepPredBits < 0,
	}
	c.budget = issueBudget{
		alu: cfg.IntALU, muldiv: cfg.IntMulDiv, fp: cfg.FPU,
		ld: cfg.LoadPorts, st: cfg.StorePorts, slots: cfg.IssueWidth,
	}
	if defCap > 0 {
		c.defq = newUOpRing(defCap)
	}
	c.pool = make([]*UOp, 0, cfg.ROBSize+fetchCap+defCap)
	for i := 0; i < cap(c.pool); i++ {
		c.pool = append(c.pool, &UOp{Item: FetchItem{GSeq: freedGSeq}})
	}
	if !cfg.ExternalFrontend {
		p, err := bpred.New(cfg.Predictor)
		if err != nil {
			return nil, fmt.Errorf("core %s: %w", cfg.Name, err)
		}
		c.pred = p
	}
	c.mulDivBusy = make([][]int64, cfg.Clusters)
	c.fpDivBusy = make([][]int64, cfg.Clusters)
	for k := 0; k < cfg.Clusters; k++ {
		c.mulDivBusy[k] = make([]int64, cfg.IntMulDiv)
		c.fpDivBusy[k] = make([]int64, cfg.FPU)
	}
	return c, nil
}

// ------------------------------------------------------------- uop pool

func (c *Core) allocUOp() *UOp {
	if n := len(c.pool); n > 0 {
		u := c.pool[n-1]
		c.pool[n-1] = nil
		c.pool = c.pool[:n-1]
		return u
	}
	return &UOp{}
}

func (c *Core) freeUOp(u *UOp) {
	*u = UOp{}
	u.Item.GSeq = freedGSeq
	u.waitingOn = freedGSeq
	c.pool = append(c.pool, u)
}

// release recycles a committed uop. A clustered core defers recycling
// until the cross-cluster bypass window closes: a consumer in the
// other cluster polls the producer's completion time for up to
// CrossClusterBypass cycles after it completes.
func (c *Core) release(u *UOp) {
	if c.cfg.Clusters > 1 {
		c.defq.pushBack(u)
		return
	}
	c.freeUOp(u)
}

// drainDeferred recycles deferred uops whose bypass window has closed
// by cycle now. It runs before the commit stage, so a consumer polling
// at now either sees the live producer (bypass window still open) or
// the recycled sentinel (window closed, operand architecturally ready)
// — the same ready/not-ready answer either way.
func (c *Core) drainDeferred(now int64) {
	bypass := int64(c.cfg.CrossClusterBypass)
	for c.defq.len() > 0 {
		u := c.defq.front()
		if u.completeAt+bypass > now {
			return
		}
		c.freeUOp(c.defq.popFront())
	}
}

// ------------------------------------------------------ window lookup

// wlookup returns the in-flight uop with sequence number g, or nil.
func (c *Core) wlookup(g uint64) *UOp {
	if u := c.wtab[g&c.wmask]; u != nil && u.Item.GSeq == g {
		return u
	}
	return nil
}

func (c *Core) wdelete(u *UOp) {
	idx := u.Item.GSeq & c.wmask
	if c.wtab[idx] == u {
		c.wtab[idx] = nil
	}
}

// ----------------------------------------------------------- accessors

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Hier returns the core's memory hierarchy.
func (c *Core) Hier() *mem.Hierarchy { return c.hier }

// Predictor returns the core's branch predictor (nil with an external
// front end).
func (c *Core) Predictor() *bpred.Predictor { return c.pred }

// Report returns the core's accumulated statistics.
func (c *Core) Report() Report { return c.rpt }

// Done reports whether the core has drained: stream exhausted and no
// instruction in flight.
func (c *Core) Done() bool {
	return c.stream.Exhausted() && c.fetchq.len() == 0 && c.rob.len() == 0
}

// InFlight returns the number of uops in the ROB.
func (c *Core) InFlight() int { return c.rob.len() }

// OldestUncommitted returns the GSeq at the head of the ROB, or
// ok=false when the ROB is empty.
func (c *Core) OldestUncommitted() (uint64, bool) {
	if c.rob.len() == 0 {
		return 0, false
	}
	return c.rob.front().Item.GSeq, true
}

// SetEventSink installs a pipeline event sink (see internal/metrics);
// call it before the first Cycle. Events are tagged with coreID. A nil
// sink (the default) disables emission.
func (c *Core) SetEventSink(sink metrics.Sink, coreID int) {
	if sink == nil {
		c.sink = nil
		return
	}
	c.sink = metrics.CoreSink{Sink: sink, Core: coreID}
}

// Cycle advances the core by one clock. Stages run commit → issue →
// dispatch → fetch so that results become visible with correct
// single-cycle bypass timing.
func (c *Core) Cycle(now int64) {
	c.rpt.Cycles = now + 1
	if c.cfg.Clusters > 1 {
		c.drainDeferred(now)
	}
	retiredBefore := c.rpt.Committed + c.rpt.Replicas
	c.commit(now)
	c.attributeCycle(now, retiredBefore)
	c.issue(now)
	if c.hasViolation {
		c.handleViolation(now)
	}
	c.dispatch(now)
	c.fetch(now)
}

// attributeCycle lands this cycle in exactly one CPI-stack bucket,
// keyed off the commit head after the commit stage ran: committing
// cycles are active; an empty window blames the front end; an unissued
// head blames its operands (channel-wait when the source it is blocked
// on is external); an executing head blames latency; a complete but
// uncommitted head blames the commit gate.
func (c *Core) attributeCycle(now int64, retiredBefore uint64) {
	switch {
	case c.rpt.Committed+c.rpt.Replicas > retiredBefore:
		c.rpt.CyclesActive++
	case c.rob.len() == 0:
		c.rpt.CyclesFetchStarved++
	default:
		u := c.rob.front()
		switch {
		case !u.issued:
			// The oldest candidate is probed on every scan it is awake
			// for, so waitSrc names the source it last failed on.
			if j := u.waitSrc; j >= 0 && u.ext[j] {
				c.rpt.CyclesChannelWait++
			} else {
				c.rpt.CyclesIssueWait++
			}
		case u.completeAt > now:
			c.rpt.CyclesExecute++
		default:
			c.rpt.CyclesCommitBlocked++
		}
	}
}

// ---------------------------------------------------------------- fetch

func (c *Core) fetch(now int64) {
	if c.branchActive {
		if now < c.branchResume {
			c.rpt.FetchStallBranch++
			return
		}
		c.branchActive = false
	}
	if now < c.fetchStallUntil {
		c.rpt.FetchStallICache++
		return
	}
	width := c.cfg.FetchWidth
	if c.cfg.ExternalFrontend {
		// The stream is post-fetch (the global sequencer already paid
		// I-cache access and branch prediction); the core drains its
		// delivery queue at buffer-fill rate so steering bursts do not
		// halve the effective front-end width.
		width *= 2
	}
	for budget := width; budget > 0; budget-- {
		if c.fetchq.len() >= c.fetchCap {
			return
		}
		item, ok := c.stream.Peek(now)
		if !ok {
			return
		}
		if !c.cfg.ExternalFrontend {
			// I-cache: charge a fetch when crossing into a new line;
			// stall on miss.
			line := c.hier.L1I.LineAddr(item.DI.PC)
			if line != c.lastFetchLine {
				lat := c.hier.Fetch(item.DI.PC)
				c.lastFetchLine = line
				if hit := c.hier.L1I.Config().LatencyCycles; lat > hit {
					c.fetchStallUntil = now + int64(lat-hit)
					return
				}
			}
		}
		c.stream.Advance()
		u := c.allocUOp()
		u.Item = item
		u.dispatchReady = now + int64(c.cfg.FrontendDepth)
		u.completeAt = notReady
		u.waitSrc = -1
		u.wakeAt = 0
		u.waiters, u.nextWaiter, u.waitingOn = nil, nil, freedGSeq
		c.fetchq.pushBack(u)
		c.rpt.Fetched++

		if !c.cfg.ExternalFrontend && item.DI.IsCtrl() {
			if c.observeControl(u) {
				return // fetch redirect or taken-branch break
			}
		}
	}
}

// observeControl runs the front-end predictors on a control
// instruction and returns true if fetch must stop this cycle.
func (c *Core) observeControl(u *UOp) bool {
	d := u.DI()
	switch d.Class {
	case isa.ClassBranch:
		if !c.pred.ObserveBranch(d.PC, d.Taken()) {
			c.rpt.BranchMispredicts++
			u.mispredicted = true
			c.blockOnBranch(u)
			return true
		}
		return d.Taken() // taken-branch fetch break
	case isa.ClassJump:
		correct := true
		switch {
		case d.IsRet():
			correct = c.pred.ObserveReturn(d.Target)
		case d.Indirect():
			correct = c.pred.ObserveIndirect(d.PC, d.Target)
		}
		if d.IsCall() {
			// The return address is the fall-through PC; the
			// call's next-PC is its (taken) target.
			c.pred.ObserveCall(d.PC + isa.InstBytes)
		}
		if !correct {
			c.rpt.IndirectMispredicts++
			u.mispredicted = true
			c.blockOnBranch(u)
			return true
		}
		return true // all jumps break the fetch group
	}
	return false
}

// blockOnBranch stalls fetch until the mispredicted control op at u
// resolves. The resume cycle is recorded when the branch issues (its
// completion time plus the redirect penalty); until then it is
// notReady, i.e. fetch stalls unconditionally.
func (c *Core) blockOnBranch(u *UOp) {
	c.branchActive = true
	c.branchGSeq = u.Item.GSeq
	c.branchResume = notReady
}

// -------------------------------------------------------------- dispatch

func (c *Core) dispatch(now int64) {
	for budget := c.cfg.FrontWidth; budget > 0 && c.fetchq.len() > 0; budget-- {
		u := c.fetchq.front()
		if u.dispatchReady > now {
			return
		}
		var verdict dispatchVerdict
		verdict, budget = c.dispatchGate(u, budget)
		switch verdict {
		case stallROB:
			c.rpt.FetchStallROB++
			return
		case stallLSQ:
			c.rpt.FetchStallLSQ++
			return
		case stallIQ:
			c.rpt.FetchStallIQ++
			return
		case stallCopy:
			c.rpt.FetchStallCopy++
			return
		}
		d := u.DI()
		cluster := u.Cluster
		c.fetchq.popFront()
		c.rob.pushBack(u)
		if idx := u.Item.GSeq & c.wmask; c.wtab[idx] == nil {
			c.wtab[idx] = u
		} else {
			// Slots are nil'ed at commit and squash, so a collision
			// means two live uops alias — the window table is undersized
			// (GSeqWindow misconfigured). Fail loudly: a silent overwrite
			// would corrupt dependence resolution.
			panic("ooo: window table collision")
		}
		c.iqCount[cluster]++
		c.dispatched++
		u.dispatched = true
		c.cand = append(c.cand, u)
		c.scanIdle = false
		if d.IsLoad() {
			c.lq.pushBack(u)
		}
		if d.IsStore() {
			c.sq.pushBack(u)
			if c.sqUnissued == 0 {
				c.sqOldestUnissued = u.Item.GSeq
			}
			c.sqUnissued++
		}
		if d.HasDst() {
			c.rat[d.Dst] = u
		}
	}
}

// dispatchVerdict classifies the dispatch stage's decision about the
// fetch-queue head: dispatch it, or which structural limit blocks it.
type dispatchVerdict uint8

const (
	dispatchOK dispatchVerdict = iota
	stallROB
	stallLSQ
	stallIQ
	stallCopy
)

// dispatchGate runs the dispatch stage's admission checks for u against
// the remaining front-end budget, returning the verdict and the budget
// after cross-cluster copy slots. On a stall verdict the pipeline state
// is exactly what the inline checks used to leave behind (the cluster
// pick and dependence resolution happen — idempotently — before the
// copy-budget check, as they always did); NextEvent and SkipTo reuse it
// so the event scan and the ticked stage can never disagree.
func (c *Core) dispatchGate(u *UOp, budget int) (dispatchVerdict, int) {
	if c.rob.len() >= c.cfg.ROBSize {
		return stallROB, budget
	}
	d := u.DI()
	if d.IsLoad() && c.lq.len() >= c.cfg.LQSize {
		return stallLSQ, budget
	}
	if d.IsStore() && c.sq.len() >= c.cfg.SQSize {
		return stallLSQ, budget
	}
	cluster := c.pickCluster(u)
	if c.iqCount[cluster] >= c.cfg.IQSize {
		return stallIQ, budget
	}
	u.Cluster = cluster

	c.resolveDeps(u)

	// Cross-cluster operands need SMU-inserted copy instructions,
	// each consuming a front-end slot (Core Fusion).
	if c.cfg.Clusters > 1 {
		for i := 0; i < u.nsrc; i++ {
			if p := u.prods[i]; p != nil && p.Cluster != cluster {
				budget--
			}
		}
		if budget < 0 {
			return stallCopy, budget
		}
	}
	return dispatchOK, budget
}

// resolveDeps fills u's dataflow from either the steering unit's
// override (Fg-STP) or the local rename table.
func (c *Core) resolveDeps(u *UOp) {
	d := u.DI()
	var buf [3]isa.Reg
	srcs := d.Sources(buf[:0])
	u.nsrc = len(srcs)
	copy(u.srcRegs[:], srcs)

	if u.Item.Deps != nil {
		for i := range srcs {
			dep := u.Item.Deps[i]
			switch {
			case dep.Producer == NoProducer:
				// architectural value: ready
			case dep.Remote:
				u.ext[i] = true
			default:
				// Local producer: still in flight, or already committed
				// (then the value is architectural).
				if p := c.wlookup(dep.Producer); p != nil {
					u.prods[i] = p
					u.prodGSeq[i] = dep.Producer
				}
			}
		}
		return
	}
	for i, r := range srcs {
		if p := c.rat[r]; p != nil {
			u.prods[i] = p
			u.prodGSeq[i] = p.Item.GSeq
		}
	}
}

// pickCluster steers a uop to a cluster: the cluster of its first
// in-flight producer if any, else the cluster with the emptier IQ.
// (Dependence-based steering per the Core Fusion design.)
func (c *Core) pickCluster(u *UOp) int {
	if c.cfg.Clusters == 1 {
		return 0
	}
	d := u.DI()
	var buf [3]isa.Reg
	for _, r := range d.Sources(buf[:0]) {
		if p := c.rat[r]; p != nil && !p.issued {
			return p.Cluster
		}
	}
	best := 0
	for k := 1; k < c.cfg.Clusters; k++ {
		if c.iqCount[k] < c.iqCount[best] {
			best = k
		}
	}
	return best
}

// ----------------------------------------------------------------- issue

// fuKind groups classes by the pipelined resource pool they consume.
type fuKind uint8

const (
	fuALU fuKind = iota
	fuMulDiv
	fuFP
	fuLoad
	fuStore
	fuNone
)

func kindOf(cl isa.Class) fuKind {
	switch cl {
	case isa.ClassIntAlu, isa.ClassBranch, isa.ClassJump:
		return fuALU
	case isa.ClassIntMul, isa.ClassIntDiv:
		return fuMulDiv
	case isa.ClassFPAlu, isa.ClassFPMul, isa.ClassFPDiv:
		return fuFP
	case isa.ClassLoad:
		return fuLoad
	case isa.ClassStore:
		return fuStore
	default:
		return fuNone
	}
}

// issue walks the unissued-candidate list (the ROB minus everything
// already executing) in program order, issuing whatever has operands
// and resources, and compacts the issued entries out of the list.
func (c *Core) issue(now int64) {
	if c.scanIdle && now < c.nextWake {
		// Every candidate was asleep last scan and none can wake before
		// nextWake; dispatch and squash clear the flag when they change
		// the list. Skipping the scan repeats no observable work.
		return
	}
	c.scanIdle = false
	budgets := c.budgets
	for k := range budgets {
		budgets[k] = c.budget
	}
	free := len(budgets) * c.budget.slots
	cand := c.cand
	allSleep := true
	minWake := sleepForever
	w := 0
	for i := 0; i < len(cand); i++ {
		if free == 0 {
			// Every cluster is out of issue slots: tryIssue would reject
			// each remaining candidate at its slot check, before any
			// side-effecting readiness probe — skip the scan.
			allSleep = false
			w += copy(cand[w:], cand[i:])
			break
		}
		u := cand[i]
		if u.wakeAt > now {
			// Provably not ready before wakeAt; re-probing would only
			// repeat pure reads (see srcReady).
			if u.wakeAt < minWake {
				minWake = u.wakeAt
			}
			if w != i {
				cand[w] = u
			}
			w++
			continue
		}
		allSleep = false
		if !c.tryIssue(u, now, budgets) {
			// Compact in place; skip the (write-barriered) store while
			// the list is still dense.
			if w != i {
				cand[w] = u
			}
			w++
		} else {
			free--
		}
		if c.hasViolation {
			// Squash pending; stop issuing. The unprocessed tail stays
			// unissued.
			w += copy(cand[w:], cand[i+1:])
			break
		}
	}
	for j := w; j < len(cand); j++ {
		cand[j] = nil
	}
	c.cand = cand[:w]
	if allSleep {
		// Nothing was probed: the list (possibly empty) is all sleepers.
		// minWake can be a sleep with no computable end — even the
		// oldest candidate waits on an unissued producer when that
		// producer is remote — and then only WakeExt ends it.
		c.scanIdle, c.nextWake = true, minWake
	}
}

// tryIssue attempts to start u's execution at now; it reports whether
// the uop issued (and so leaves the candidate list).
func (c *Core) tryIssue(u *UOp, now int64, budgets []issueBudget) bool {
	b := &budgets[u.Cluster]
	if b.slots == 0 {
		// This cluster is out of issue slots; others may still go.
		return false
	}
	if !c.operandsReady(u, now) {
		return false
	}
	d := u.DI()
	kind := kindOf(d.Class)
	var unit *int64
	switch kind {
	case fuALU:
		if b.alu == 0 {
			return false
		}
	case fuMulDiv:
		if b.muldiv == 0 {
			return false
		}
		if d.Class == isa.ClassIntDiv {
			unit = c.freeUnit(c.mulDivBusy[u.Cluster], now)
			if unit == nil {
				return false
			}
		}
	case fuFP:
		if b.fp == 0 {
			return false
		}
		if d.Class == isa.ClassFPDiv {
			unit = c.freeUnit(c.fpDivBusy[u.Cluster], now)
			if unit == nil {
				return false
			}
		}
	case fuLoad:
		if b.ld == 0 {
			return false
		}
		ok, lat := c.loadReady(u, now)
		if !ok {
			return false
		}
		c.startExec(u, now, lat)
		b.ld--
		b.slots--
		return true
	case fuStore:
		if b.st == 0 {
			return false
		}
		c.startExec(u, now, c.lat[d.Class].Cycles)
		b.st--
		b.slots--
		c.storeAddressKnown(u, now)
		return true
	}

	lat := c.lat[d.Class].Cycles
	c.startExec(u, now, lat)
	if unit != nil {
		*unit = now + int64(lat)
	}
	switch kind {
	case fuALU:
		b.alu--
	case fuMulDiv:
		b.muldiv--
	case fuFP:
		b.fp--
	}
	b.slots--
	return true
}

func (c *Core) startExec(u *UOp, now int64, lat int) {
	u.issued = true
	u.completeAt = now + int64(lat)
	c.iqCount[u.Cluster]--
	c.rpt.Issued++
	if u.DI().IsStore() {
		c.sqUnissued--
		if u.Item.GSeq == c.sqOldestUnissued {
			c.advanceSQWatermark()
		}
	}
	if c.branchActive && u.Item.GSeq == c.branchGSeq {
		c.branchResume = u.completeAt + int64(c.cfg.ExtraMispredictPenalty)
	}
	// Wake consumers sleeping on this producer. They sit later in the
	// candidate list (younger), so the current scan revisits them after
	// this issue — the same cycle a polling scan would notice.
	for wtr := u.waiters; wtr != nil; {
		nxt := wtr.nextWaiter
		if wtr.waitingOn == u.Item.GSeq {
			wtr.waitingOn = freedGSeq
			wtr.nextWaiter = nil
			wtr.wakeAt = 0
		}
		wtr = nxt
	}
	u.waiters = nil
	if c.sink != nil {
		c.sink.Emit(metrics.Event{
			Cycle: now, Dur: int64(lat), Kind: metrics.EvIssue,
			GSeq: u.GSeq(), Detail: u.DI().Class.String(),
		})
	}
	if c.hooks != nil {
		c.hooks.OnIssue(u, now)
		c.hooks.OnComplete(u, u.completeAt)
	}
}

// advanceSQWatermark recomputes the oldest-unissued-store watermark
// after the store holding it issued.
func (c *Core) advanceSQWatermark() {
	c.sqOldestUnissued = freedGSeq
	for i := 0; i < c.sq.len(); i++ {
		if s := c.sq.at(i); !s.issued {
			c.sqOldestUnissued = s.Item.GSeq
			return
		}
	}
}

// freeUnit returns a pointer to an unpipelined unit free at now, or nil.
func (c *Core) freeUnit(units []int64, now int64) *int64 {
	for i := range units {
		if units[i] <= now {
			return &units[i]
		}
	}
	return nil
}

// operandsReady checks register dataflow (local bypass network and
// cross-core channel).
//
// The waitSrc cache re-checks last cycle's first blocking source before
// anything else: while it still blocks, the sources before it need no
// re-poll (they answered ready, which is stable — local completions are
// scheduled, external deliveries memoised) and the sources after it
// were never reached by the in-order scan, so skipping them leaves the
// hook-call sequence — and thus channel grant timing — exactly as the
// plain scan produces it.
func (c *Core) operandsReady(u *UOp, now int64) bool {
	if j := u.waitSrc; j >= 0 {
		if !c.srcReady(u, int(j), now) {
			return false
		}
		u.waitSrc = -1
	}
	for i := 0; i < u.nsrc; i++ {
		if !c.srcReady(u, i, now) {
			u.waitSrc = int8(i)
			return false
		}
	}
	return true
}

// srcReady checks one source of u. Re-polling a source that already
// answered ready is free of side effects: ExtReadyAt memoises its
// grant on the first ready answer, and the local-producer path only
// reads the producer's schedule.
func (c *Core) srcReady(u *UOp, i int, now int64) bool {
	if u.ext[i] {
		if t := c.hooks.ExtReadyAt(u, i, now); t > now {
			// Binding (see Hooks.ExtReadyAt): skipping the polls before t
			// skips pure reads, and WakeExt brings t forward exactly when
			// a poll would start answering differently.
			u.wakeAt = t
			return false
		}
		return true
	}
	p := u.prods[i]
	if p == nil {
		return true
	}
	if p.Item.GSeq != u.prodGSeq[i] {
		// The producer committed and its record was recycled: its
		// value is architectural state now. (A clustered core defers
		// recycling past the bypass window, so a mismatch here never
		// hides a bypass stall.)
		u.prods[i] = nil
		return true
	}
	if !p.issued {
		// No computable ready time until the producer issues: sleep on
		// the producer's waiter chain (startExec wakes it). Exact because
		// this poll is a pure read — skipping the repeats changes no
		// state — and the wake re-probe happens in the same scan that
		// issues the producer (consumers are younger, hence later in the
		// candidate list), just as a polling scan would re-poll it.
		if u.waitingOn != p.Item.GSeq {
			u.waitingOn = p.Item.GSeq
			u.nextWaiter = p.waiters
			p.waiters = u
		}
		u.wakeAt = sleepForever
		return false
	}
	ready := p.completeAt
	if p.Cluster != u.Cluster {
		ready += int64(c.cfg.CrossClusterBypass)
	}
	if ready > now {
		// Exact wake time: the producer's schedule is fixed once it
		// issues, and on clustered cores the deferred-release window
		// keeps this answer stable even if the producer commits first
		// (recycling — which would flip the gseq check above to
		// "architecturally ready" — is deferred to the same cycle
		// `ready` a live poll would have answered ready).
		u.wakeAt = ready
		return false
	}
	return true
}

// loadReady decides whether load u can issue now and returns its
// execution latency. It implements store-to-load forwarding and
// speculative disambiguation against the local store queue, plus the
// cross-core gate. The unissued-store count and watermark let the
// common case (no older store with unknown address) skip the
// unknown-address logic without walking the queue.
func (c *Core) loadReady(u *UOp, now int64) (bool, int) {
	speculative := false
	g := u.Item.GSeq
	n := c.sq.len()
	// Stores older than the load form a prefix [0, b) of the SQ; count
	// the unissued ones among the younger suffix to subtract.
	b := n
	unissuedYounger := 0
	for b > 0 {
		s := c.sq.at(b - 1)
		if s.Item.GSeq < g {
			break
		}
		if !s.issued {
			unissuedYounger++
		}
		b--
	}
	unissuedOlder := c.sqUnissued - unissuedYounger
	if c.sqUnissued == 0 || c.sqOldestUnissued >= g {
		unissuedOlder = 0
	}
	if unissuedOlder > 0 {
		if c.oracle {
			// Oracle: wait only on true conflicts.
			for i := b - 1; i >= 0; i-- {
				s := c.sq.at(i)
				if !s.issued && s.DI().Addr == u.DI().Addr {
					return false, 0
				}
			}
		} else {
			// One predictor query per unissued older store, exactly as
			// the full-queue scan made (the count drives the predictor's
			// periodic clear).
			if c.dep.MustWaitN(u.DI().PC, unissuedOlder) {
				return false, 0
			}
			speculative = true
		}
	}
	// Store-to-load forwarding: youngest already-issued older store to
	// the same address.
	var fwd *UOp
	for i := b - 1; i >= 0; i-- {
		s := c.sq.at(i)
		if s.issued && s.DI().Addr == u.DI().Addr {
			fwd = s
			break
		}
	}
	if c.hooks != nil {
		ok, spec := c.hooks.LoadGate(u, now)
		if !ok {
			return false, 0
		}
		speculative = speculative || spec
	}
	if speculative {
		c.rpt.LoadsSpeculative++
	}
	if fwd != nil {
		u.fwdGSeq = fwd.Item.GSeq
		u.hasFwd = true
		c.rpt.LoadsForwarded++
		return true, 1
	}
	lat := c.hier.Load(u.DI().Addr)
	if c.hooks != nil {
		lat += c.hooks.LoadExtraLatency(u)
	}
	return true, lat
}

// storeAddressKnown checks, once store s issues, whether a younger load
// already issued with the same address and stale data — a memory-order
// violation.
func (c *Core) storeAddressKnown(s *UOp, now int64) {
	sg := s.Item.GSeq
	for i := 0; i < c.lq.len(); i++ {
		l := c.lq.at(i)
		if l.Item.GSeq <= sg || !l.issued {
			continue
		}
		if l.DI().Addr != s.DI().Addr {
			continue
		}
		// The load is safe if it forwarded from a store younger than s
		// (that store's value supersedes s's).
		if l.hasFwd && l.fwdGSeq > sg {
			continue
		}
		// The LQ is in GSeq order, so the first match is the oldest.
		c.rpt.MemViolations++
		c.dep.Violation(l.DI().PC)
		c.pendingViolation = l.Item.GSeq
		c.hasViolation = true
		return
	}
}

func (c *Core) handleViolation(now int64) {
	gseq := c.pendingViolation
	c.hasViolation = false
	c.pendingViolation = 0
	if c.hooks != nil && c.hooks.OnViolation(gseq, now) {
		return // coordinator squashes both cores
	}
	c.SquashFrom(gseq, now)
}

// ---------------------------------------------------------------- commit

func (c *Core) commit(now int64) {
	for n := 0; n < c.cfg.CommitWidth && c.rob.len() > 0; n++ {
		u := c.rob.front()
		if !u.issued || u.completeAt > now {
			return
		}
		if c.hooks != nil && !c.hooks.CanCommit(u, now) {
			return
		}
		d := u.DI()
		if d.IsStore() {
			c.hier.Store(d.Addr)
		}
		c.rob.popFront()
		if c.finished > 0 {
			c.finished--
		}
		c.wdelete(u)
		if d.IsLoad() {
			c.lq.popFront()
		}
		if d.IsStore() {
			c.sq.popFront()
		}
		if d.HasDst() && c.rat[d.Dst] == u {
			c.rat[d.Dst] = nil
		}
		if u.Item.Replica {
			c.rpt.Replicas++
		} else {
			c.rpt.Committed++
		}
		if c.sink != nil {
			c.sink.Emit(metrics.Event{
				Cycle: now, Kind: metrics.EvCommit, GSeq: u.GSeq(),
			})
		}
		if c.hooks != nil {
			c.hooks.OnCommit(u, now)
		}
		c.release(u)
	}
}

// ---------------------------------------------------------------- squash

// SquashFrom discards every uop with GSeq >= gseq from the pipeline,
// rewinds the stream to gseq and restarts fetch. The refetched
// instructions pay the frontend depth again through dispatchReady.
// Discarded uops go back to the pool: nothing can reference them, since
// every consumer of a squashed producer is younger and squashed too.
func (c *Core) SquashFrom(gseq uint64, now int64) {
	c.rpt.Squashes++
	if c.sink != nil {
		c.sink.Emit(metrics.Event{Cycle: now, Kind: metrics.EvSquash, GSeq: gseq})
	}

	// Fetch queue: entries are in GSeq order, and were never renamed,
	// so they can be recycled immediately.
	fcut := c.fetchq.len()
	for fcut > 0 && c.fetchq.at(fcut-1).Item.GSeq >= gseq {
		fcut--
	}
	for j := fcut; j < c.fetchq.len(); j++ {
		c.freeUOp(c.fetchq.at(j))
	}
	c.rpt.Squashed += uint64(c.fetchq.truncateFrom(fcut))

	// ROB and derived structures (all hold the same uops; only the ROB
	// recycles them, after every alias slot has been cleared).
	cut := c.rob.len()
	for cut > 0 && c.rob.at(cut-1).Item.GSeq >= gseq {
		cut--
	}
	for j := cut; j < c.rob.len(); j++ {
		u := c.rob.at(j)
		c.wdelete(u)
		if !u.issued {
			c.iqCount[u.Cluster]--
		}
		c.rpt.Squashed++
	}
	c.lq.truncateGSeq(gseq)
	c.sq.truncateGSeq(gseq)
	ci := len(c.cand)
	for ci > 0 && c.cand[ci-1].Item.GSeq >= gseq {
		ci--
	}
	for j := ci; j < len(c.cand); j++ {
		c.cand[j] = nil
	}
	c.cand = c.cand[:ci]
	// Purge squashed entries from surviving producers' waiter chains
	// BEFORE any squashed uop is recycled: freeUOp zeroes the links a
	// live chain still traverses, and a recycled waiter could later be
	// re-enqueued elsewhere, corrupting both chains. Only unissued uops
	// hold waiters, and those are exactly the candidate list.
	for _, v := range c.cand {
		if v.waiters == nil {
			continue
		}
		var keep *UOp
		for wtr := v.waiters; wtr != nil; {
			nxt := wtr.nextWaiter
			if wtr.Item.GSeq < gseq && wtr.waitingOn == v.Item.GSeq {
				wtr.nextWaiter = keep
				keep = wtr
			} else {
				wtr.nextWaiter = nil
			}
			wtr = nxt
		}
		v.waiters = keep
	}
	c.scanIdle = false
	for j := cut; j < c.rob.len(); j++ {
		c.freeUOp(c.rob.at(j))
	}
	c.rob.truncateFrom(cut)
	if c.finished > cut {
		c.finished = cut
	}

	// Recount the unissued-store watermark over the surviving SQ.
	c.sqUnissued = 0
	c.sqOldestUnissued = freedGSeq
	for i := 0; i < c.sq.len(); i++ {
		if s := c.sq.at(i); !s.issued {
			if c.sqUnissued == 0 {
				c.sqOldestUnissued = s.Item.GSeq
			}
			c.sqUnissued++
		}
	}

	// Rebuild the rename table from the surviving window.
	for i := range c.rat {
		c.rat[i] = nil
	}
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		if d := u.DI(); d.HasDst() {
			c.rat[d.Dst] = u
		}
	}

	if c.branchActive && c.branchGSeq >= gseq {
		c.branchActive = false
	}
	c.stream.Rewind(gseq)
	// Redirect: fetch restarts next cycle; the refill cost comes from
	// FrontendDepth on the refetched instructions.
	if c.fetchStallUntil < now+1 {
		c.fetchStallUntil = now + 1
	}
	// Force the next fetch to re-touch the I-cache line.
	c.lastFetchLine = ^uint64(0)
}

// ------------------------------------------------------- coordinator API

// OldestUnfinished returns the GSeq of the oldest instruction this core
// knows about that has not finished executing by cycle now (in the ROB
// or still in the fetch queue). ok=false means everything the core
// holds is complete. The walk resumes past the entries an earlier
// query at a cycle <= now already saw finished (see finished).
func (c *Core) OldestUnfinished(now int64) (uint64, bool) {
	if now < c.finishedAt {
		c.finished = 0
	}
	c.finishedAt = now
	i := c.finished
	for ; i < c.rob.len(); i++ {
		if u := c.rob.at(i); !u.issued || u.completeAt > now {
			break
		}
	}
	c.finished = i
	if i < c.rob.len() {
		return c.rob.at(i).Item.GSeq, true
	}
	if c.fetchq.len() > 0 {
		return c.fetchq.front().Item.GSeq, true
	}
	return 0, false
}

// WakeExt wakes, at cycle at, every candidate asleep on an external
// source whose producer gseq lies in [lo, hi): its next issue scan at
// or after at re-polls ExtReadyAt. The coordinator calls it when such
// a producer issues, and when it forgets deliveries it already
// answered. Candidates due no later than at are left alone.
func (c *Core) WakeExt(lo, hi uint64, at int64) {
	for _, u := range c.cand {
		j := u.waitSrc
		if u.wakeAt <= at || j < 0 || !u.ext[j] {
			continue
		}
		if p := u.Item.Deps[j].Producer; p >= lo && p < hi {
			u.wakeAt = at
			if c.scanIdle && at < c.nextWake {
				c.nextWake = at
			}
		}
	}
}

// Activity counts the pipeline work done so far: uops fetched,
// dispatched, issued and retired, plus squashes. Step compares it
// across a ticked cycle; only a cycle that moved nothing is worth
// asking NextEvent about.
func (c *Core) Activity() uint64 {
	return c.rpt.Fetched + c.dispatched + c.rpt.Issued +
		c.rpt.Committed + c.rpt.Replicas + c.rpt.Squashes
}

// HasIssuedStoreBelow reports whether an issued, still-uncommitted
// store older than gseq to addr sits in this core's store queue — the
// cross-core store-forwarding probe of the Fg-STP coordinator.
func (c *Core) HasIssuedStoreBelow(gseq, addr uint64) bool {
	for i := 0; i < c.sq.len(); i++ {
		s := c.sq.at(i)
		if s.Item.GSeq >= gseq {
			return false
		}
		if s.issued && s.DI().Addr == addr {
			return true
		}
	}
	return false
}

// FirstIssuedLoadConflict returns the oldest issued, still-uncommitted
// load younger than gseq that read addr with stale data (i.e. not
// forwarded from a store younger than gseq), or nil — the victim scan
// of cross-core memory-order violation detection. The returned uop is
// only valid for the duration of the call chain that obtained it.
func (c *Core) FirstIssuedLoadConflict(gseq, addr uint64) *UOp {
	for i := 0; i < c.lq.len(); i++ {
		l := c.lq.at(i)
		if l.Item.GSeq <= gseq || !l.issued || l.DI().Addr != addr {
			continue
		}
		if l.hasFwd && l.fwdGSeq > gseq {
			continue
		}
		return l
	}
	return nil
}
