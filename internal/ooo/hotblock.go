package ooo

// Hot-block timing memoization: the capture/replay half of the
// trace-JIT (the profiling substrate lives in internal/hotblock).
//
// A steady-state loop re-executes identical basic blocks with identical
// dependence shapes, yet the ticked engine re-derives every rename,
// steer and issue decision from scratch each iteration. This engine
// detects the repetition at drain-loop tops (where the machine is
// between cycles and its state is well-defined): when the fetch
// frontier sits at a hot block start, it captures one fully-ticked span
// — from that top to a later top where the frontier reaches the same
// block start and the machine's *normalized* state recurs — and then
// replays the span on later iterations by bulk-advancing the clock,
// bulk-applying the report delta and bulk-shifting the in-flight window
// by (Δcycles, Δinstructions).
//
// Replay is exact, not approximate. The core's evolution from a drain
// top is a deterministic function of (a) the normalized machine state
// — all times taken relative to `now`, all sequence numbers relative to
// the fetch position, with dead values (expired stalls, long-completed
// results) collapsed to canonical sentinels; (b) the shape of the trace
// window around the position (opcode classes, register numbers, taken
// bits); (c) the equality partition of memory addresses in that window;
// and (d) the answers the memory hierarchy, branch predictor and
// dependence predictor give during the span. A template therefore
// records the entry state vector, the span shape, and the external
// answers observed during capture; a replay is permitted only when the
// vector recurs bit-for-bit, the shapes and address partition match,
// and pure prechecks prove the hierarchy (every recorded access still
// hits), the predictor (an overlay simulation of the span's observation
// sequence stays all-correct) and the dependence predictor (no table
// clear in range, same per-PC bits) would answer exactly as they did at
// capture. Under those preconditions the ticked span would evolve in
// parallel with the captured one, so the shifted exit state is the
// ticked exit state and the run's observable output — cycle counts,
// reports, cache and predictor statistics — is byte-identical with
// memoization on or off. The differential and fuzz tests in
// hotblock_test.go hold it to that.
//
// Squashes invalidate: an in-progress capture is aborted and armed
// templates of blocks inside the squashed region are dropped (the
// region is provably bounded by the in-flight span). Replay is never
// attempted while capturing, mid-squash, or when the watchdog slack
// would not admit the whole span.

import (
	"slices"

	"repro/internal/bpred"
	"repro/internal/hotblock"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// hbNone is the state-vector sentinel for "no value" (absent producer,
// inactive stall, infinite sleep). It is far outside any reachable
// relative time or position offset, so it can never collide with a real
// normalized value.
const hbNone = int64(-1) << 40

// ------------------------------------------------------------ recording

// hbMemKind tags one recorded memory-hierarchy access.
type hbMemKind uint8

const (
	hbMemFetch hbMemKind = iota // Hierarchy.Fetch (I-cache line cross)
	hbMemLoad                   // Hierarchy.Load (non-forwarded load issue)
	hbMemStore                  // Hierarchy.Store (store commit)
)

// hbMemAccess is one hierarchy call made during a capture span, keyed
// by the trace position of the uop that caused it relative to the
// span's entry position. Loads and stores of uops already in flight at
// entry give negative offsets (bounded by the template's backSpan);
// fetches are always in-span. lat records the latency the hierarchy
// answered — the only part of a hierarchy response the core can
// observe — so replay preconditions can accept recurring misses, not
// just all-hit spans (see hbProbeMatch).
type hbMemAccess struct {
	kind   hbMemKind
	posOff int32
	lat    int32
}

// hbDepQuery is one dependence-predictor query (MustWaitN call) made
// during a capture span: which load asked (position offset), how many
// unissued older stores it faced (the predictor's op-counter cost), and
// what the answer was.
type hbDepQuery struct {
	posOff int32
	n      int32
	wait   bool
}

// hbLog accumulates the external-interaction log of one capture span.
// The core's record sites (fetch, load issue, store commit, dependence
// query) append to it only while Core.hblog is non-nil.
type hbLog struct {
	basePos int
	mem     []hbMemAccess
	dep     []hbDepQuery
}

// reset empties the log and rebases position offsets on basePos.
func (r *hbLog) reset(basePos int) {
	r.basePos = basePos
	r.mem = r.mem[:0]
	r.dep = r.dep[:0]
}

// recMem appends one hierarchy access with its answered latency.
func (r *hbLog) recMem(kind hbMemKind, gseq uint64, lat int) {
	r.mem = append(r.mem, hbMemAccess{
		kind:   kind,
		posOff: int32(int64(gseq) - int64(r.basePos)),
		lat:    int32(lat),
	})
}

// recDep appends one dependence-predictor query.
func (r *hbLog) recDep(gseq uint64, n int, wait bool) {
	r.dep = append(r.dep, hbDepQuery{
		posOff: int32(int64(gseq) - int64(r.basePos)),
		n:      int32(n), wait: wait,
	})
}

// ------------------------------------------------------------- template

// hbTemplate is one captured timing span, closed over possibly several
// block iterations (dg >= MinSpanInsts amortizes the O(window) replay
// shift).
type hbTemplate struct {
	capPos   int // trace position at capture entry
	backSpan int // in-flight history depth at entry (positions before capPos whose shape matters)
	dg       int // instructions fetched+committed across the span
	dc       int64
	// lastCommitOff is the span's final commit cycle relative to entry,
	// feeding the drain watchdog's progress bookkeeping.
	lastCommitOff int64

	quick hbQuick
	vec   []int64 // normalized entry state vector (== exit vector)
	delta Report  // field-wise report delta over the span

	// allHit marks a span whose every hierarchy access hit cache (zero
	// L1 miss / L2 access / prefetch deltas). All-hit templates keep the
	// cheap Lookup-based precheck; the rest — periodic-miss templates —
	// prove recurrence with a full probe replay (hbProbeMatch).
	allHit bool

	mem      []hbMemAccess
	dep      []hbDepQuery
	depCalls uint64 // total MustWait op-counter cost of the dep log
}

// hbQuick is a cheap fingerprint of the scalars that dominate vector
// mismatches; comparing it first bounds the cost of repeated full
// encodes against unsteady blocks.
type hbQuick [8]int32

// hbCapEntry is the snapshot taken when a capture span opens.
type hbCapEntry struct {
	now      int64
	pos      int
	backSpan int
	quick    hbQuick
	vec      []int64 // owned copy
	rpt      Report

	l1iMiss, l1dMiss, l2Acc, pref uint64
	depOps, depClearAt            uint64

	// closeFails counts block tops at which the open span failed to
	// close (vector/occupancy not recurring). Warm-up spans — opened
	// while the caches are still filling, so their entry snapshot can
	// never recur — are evicted after hbMaxCloseFails instead of riding
	// to the span limits; the cap still admits loops whose state recurs
	// only every few iterations.
	closeFails int
}

// hbMaxCloseFails bounds how many failed close attempts an open capture
// survives before it is declared unsteady (see hbCapEntry.closeFails).
const hbMaxCloseFails = 8

// hbCtl is the per-core memoization controller.
type hbCtl struct {
	cfg  hotblock.Config
	ctrs *hotblock.Counters
	prof *hotblock.Profile
	tr   *trace.Trace
	ts   *TraceStream

	// lastSeenPos dedupes drain tops: the detector acts only when the
	// fetch frontier moved since the previous top (skip-only tops change
	// no position and must not re-observe).
	lastSeenPos int

	capturing bool
	capB      *hotblock.Block
	cap       hbCapEntry
	rec       hbLog

	// Chained-replay fast path: when a replay ends exactly where the
	// next one would begin, the exit vector is a pure shift of the
	// template's own vector (shifts preserve every normalized value), so
	// the encode+compare can be skipped. Any squash clears it.
	lastTpl    *hbTemplate
	lastEndNow int64
	lastEndPos int

	vecbuf  []int64
	scratch *bpred.Scratch
	probe   *mem.Probe // lazily allocated; periodic-miss prechecks only
	addrA   map[uint64]int32
	addrB   map[uint64]int32
}

// EnableHotBlock turns on hot-block timing memoization for this core
// and reports whether it engaged. It declines — leaving the core in
// plain ticked/skip mode — when the core is not eligible: coordinated
// cores (non-nil hooks; the Fg-STP pair's cross-core channel and
// sequencer state make drain tops non-local), externally sequenced
// front ends, non-trace streams, and cores with a pipeline-event sink
// (replayed spans emit no per-uop events). Call it after NewCore and
// before the first cycle; ctrs may be nil.
func (c *Core) EnableHotBlock(cfg hotblock.Config, ctrs *hotblock.Counters) bool {
	if c.hooks != nil || c.cfg.ExternalFrontend {
		// Cross-core visibility: hooks or an external sequencer make
		// drain tops non-local to this core, so the Fg-STP pair runs on
		// the plain ticked/skip engine.
		if ctrs != nil {
			ctrs.DeclinedVisibility++
		}
		return false
	}
	if c.sink != nil {
		return false
	}
	ts, ok := c.stream.(*TraceStream)
	if !ok {
		return false
	}
	if ctrs == nil {
		ctrs = &hotblock.Counters{}
	}
	c.hb = &hbCtl{
		cfg:         cfg.WithDefaults(),
		ctrs:        ctrs,
		prof:        hotblock.NewProfile(),
		tr:          ts.tr,
		ts:          ts,
		lastSeenPos: -1,
		scratch:     bpred.NewScratch(),
		addrA:       make(map[uint64]int32),
		addrB:       make(map[uint64]int32),
	}
	c.hblog = nil
	return true
}

// HotBlockEnabled reports whether memoization is active on this core.
func (c *Core) HotBlockEnabled() bool { return c.hb != nil }

// ------------------------------------------------------------- detector

// hotblockTop runs the detector at one drain-loop top. It returns
// (end, true) when it replayed a template covering cycles [now, end) —
// the drain must jump its clock to end — and (0, false) when the top
// proceeds normally (tick or skip). lastProgress and limit are the
// drain watchdog's bounds: a replay is refused unless the whole span
// provably keeps every intermediate ticked top below both.
func (c *Core) hotblockTop(now, lastProgress, limit int64) (int64, bool) {
	h := c.hb
	pos := h.ts.pos
	if h.capturing {
		if now-h.cap.now > h.cfg.MaxSpanCycles || pos-h.cap.pos > h.cfg.MaxSpanInsts {
			h.ctrs.AbortsSpanLimit++
			c.hbAbortCapture(false)
		} else if c.hbSpanPoisoned() {
			h.ctrs.AbortsUnsteady++
			c.hbAbortCapture(false)
		}
	}
	if pos == h.lastSeenPos {
		return 0, false
	}
	h.lastSeenPos = pos
	if pos >= h.tr.Len() || !h.tr.BlockStartAt(pos) {
		return 0, false
	}
	pc := h.tr.At(pos).PC
	if h.capturing {
		if pc == h.capB.PC && pos-h.cap.pos >= h.cfg.MinSpanInsts {
			c.hbTryClose(now, pos)
			if h.capturing {
				if h.cap.closeFails++; h.cap.closeFails > hbMaxCloseFails {
					h.ctrs.AbortsUnsteady++
					c.hbAbortCapture(false)
				}
			}
		}
		return 0, false
	}
	b := h.prof.Observe(pc)
	switch b.Status {
	case hotblock.Cold:
		if b.Count >= uint64(h.cfg.Threshold) {
			b.Status = hotblock.Hot
			c.hbBeginCapture(b, now, pos)
		}
	case hotblock.Hot:
		c.hbBeginCapture(b, now, pos)
	case hotblock.Armed:
		return c.hbTryReplay(b, now, pos, lastProgress, limit)
	case hotblock.Dead:
		// Exponential-backoff revival: cold-start noise (compulsory
		// misses, predictor warm-up, the dependence table's first clear)
		// is indistinguishable from unsteadiness and can burn every
		// capture attempt before the loop reaches steady state. A block
		// still recurring after its count doubles has earned another try.
		if b.Count >= b.ReviveAt {
			b.Status = hotblock.Hot
			b.Attempts = 0
			b.Misses = 0
		}
	}
	return 0, false
}

// -------------------------------------------------------------- capture

func (c *Core) hbBeginCapture(b *hotblock.Block, now int64, pos int) {
	h := c.hb
	oldest := c.hbOldestInFlight(pos)
	h.capturing = true
	h.capB = b
	h.cap.now = now
	h.cap.pos = pos
	h.cap.backSpan = pos - oldest
	h.cap.quick = c.hbQuickState(now)
	h.cap.vec = append(h.cap.vec[:0], c.hbEncode(now, pos)...)
	h.cap.rpt = c.rpt
	h.cap.l1iMiss = c.hier.L1I.Stats.Misses
	h.cap.l1dMiss = c.hier.L1D.Stats.Misses
	h.cap.l2Acc = c.hier.L2.Stats.Accesses
	h.cap.pref = c.hier.Prefetches
	h.cap.depOps = c.dep.ops
	h.cap.depClearAt = c.dep.clearAt
	h.cap.closeFails = 0
	h.rec.reset(pos)
	c.hblog = &h.rec
}

// hbOldestInFlight returns the trace position of the oldest in-flight
// uop (ROB front, else fetch-queue front), or pos when the pipeline is
// empty — the base of a capture span's backSpan.
func (c *Core) hbOldestInFlight(pos int) int {
	if c.rob.len() > 0 {
		return int(c.rob.front().Item.GSeq)
	}
	if c.fetchq.len() > 0 {
		return int(c.fetchq.front().Item.GSeq)
	}
	return pos
}

// hbSpanPoisoned reports whether an event that can never recur in a
// steady-state span — a squash, a mispredict, a dependence-table
// clear — has occurred since the open capture's entry snapshot. Such a
// span can never close, so the detector checks this at every top while
// capturing: aborting at the first event (instead of when the frontier
// re-reaches the block start) stops the recording work for doomed
// attempts after a handful of instructions.
//
// Cache misses and prefetches deliberately do NOT poison: a streaming
// loop whose every iteration misses the same way is exactly as steady
// as an all-hit loop. The template records the latency pattern
// (hbMemAccess.lat) and replay proves its recurrence with a pure probe
// (hbProbeMatch), so periodic-miss spans close into templates instead
// of burning every capture attempt.
func (c *Core) hbSpanPoisoned() bool {
	h := c.hb
	return c.rpt.Squashes != h.cap.rpt.Squashes ||
		c.rpt.MemViolations != h.cap.rpt.MemViolations ||
		c.rpt.BranchMispredicts != h.cap.rpt.BranchMispredicts ||
		c.rpt.IndirectMispredicts != h.cap.rpt.IndirectMispredicts ||
		c.rpt.Replicas != h.cap.rpt.Replicas ||
		c.rpt.Squashed != h.cap.rpt.Squashed ||
		(c.dep.table != nil && c.dep.clearAt != h.cap.depClearAt)
}

// hbTryClose attempts to close the open capture span at a top where the
// fetch frontier re-reached the captured block's start PC. The detector
// has already aborted poisoned spans (hbSpanPoisoned, checked at every
// top, including this one), so only the recurrence conditions remain; a
// state vector that merely has not recurred yet keeps the span open for
// a later occurrence.
func (c *Core) hbTryClose(now int64, pos int) {
	h := c.hb
	dg := pos - h.cap.pos
	rd := reportDelta(&c.rpt, &h.cap.rpt)
	// A committed delta short of dg means window occupancy has not
	// recurred yet (commits still lag the warm-up fetch burst) — a
	// transient condition, like a vector mismatch: keep the span open.
	// Occupancy equality implies committed == fetched over the span, so
	// an armed template never needs this as a separate precondition.
	if rd.Committed != uint64(dg) {
		return
	}
	if c.hbQuickState(now) != h.cap.quick {
		return
	}
	if !slices.Equal(c.hbEncode(now, pos), h.cap.vec) {
		return
	}

	b := h.capB
	tpl := &hbTemplate{
		capPos:        h.cap.pos,
		backSpan:      h.cap.backSpan,
		dg:            dg,
		dc:            now - h.cap.now,
		lastCommitOff: c.lastCommitAt - h.cap.now,
		quick:         h.cap.quick,
		vec:           slices.Clone(h.cap.vec),
		delta:         rd,
		allHit: c.hier.L1I.Stats.Misses == h.cap.l1iMiss &&
			c.hier.L1D.Stats.Misses == h.cap.l1dMiss &&
			c.hier.L2.Stats.Accesses == h.cap.l2Acc &&
			c.hier.Prefetches == h.cap.pref,
		mem: slices.Clone(h.rec.mem),
		dep: slices.Clone(h.rec.dep),
	}
	for _, q := range tpl.dep {
		if q.wait {
			tpl.depCalls++
		} else {
			tpl.depCalls += uint64(q.n)
		}
	}
	h.capturing = false
	h.capB = nil
	c.hblog = nil
	b.Template = tpl
	b.Status = hotblock.Armed
	b.Attempts = 0
	// b.Misses deliberately survives the re-arm: a successful replay
	// resets it, so a block that thrashes between capture and failing
	// preconditions (its miss pattern never actually recurring) still
	// exhausts MaxPrecondMisses and dies.
	h.ctrs.Templates++
	if !tpl.allHit {
		h.ctrs.TemplatesPeriodic++
	}
}

// hbAbortCapture discards the open capture span. squash marks aborts
// forced by a pipeline squash (counted separately in telemetry).
func (c *Core) hbAbortCapture(squash bool) {
	h := c.hb
	h.capturing = false
	c.hblog = nil
	b := h.capB
	h.capB = nil
	if b == nil {
		return
	}
	if squash {
		h.ctrs.InvalidationsSquash++
	}
	b.Attempts++
	if b.Attempts >= h.cfg.MaxCaptureAttempts {
		b.Status = hotblock.Dead
		b.Template = nil
		b.ReviveAt = b.Count * 2
	}
}

// hbOnSquash is called from SquashFrom before the stream rewinds (it
// needs the pre-rewind fetch frontier): it aborts any open capture and
// drops armed templates of blocks starting inside the squashed region
// [gseq, frontier) — the machine just proved those blocks are not in
// steady state. The walk is bounded by the in-flight span.
func (c *Core) hbOnSquash(gseq uint64) {
	h := c.hb
	if h.capturing {
		c.hbAbortCapture(true)
	}
	h.lastTpl = nil
	pos := h.ts.pos
	for p := int(gseq); p < pos; p++ {
		if !h.tr.BlockStartAt(p) {
			continue
		}
		if b := h.prof.Lookup(h.tr.At(p).PC); b != nil && b.Status == hotblock.Armed {
			b.Template = nil
			b.Status = hotblock.Hot
			b.Attempts = 0
			h.ctrs.InvalidationsSquash++
		}
	}
	h.lastSeenPos = -1
}

// --------------------------------------------------------------- replay

// hbTryReplay checks an armed template's preconditions at (now, pos)
// and, when every one holds, applies the span in bulk and returns its
// end cycle.
func (c *Core) hbTryReplay(b *hotblock.Block, now int64, pos int, lastProgress, limit int64) (int64, bool) {
	h := c.hb
	tpl := b.Template.(*hbTemplate)
	end := now + tpl.dc
	// Each precondition failure is attributed to the first check that
	// refused, so coverage gaps are diagnosable per reason in telemetry.
	var fail *uint64
	switch {
	case !(end <= lastProgress+LivelockWindow && end <= limit &&
		pos-tpl.backSpan >= 0 && pos+tpl.dg <= h.tr.Len()):
		fail = &h.ctrs.PrecondWindow
	// A replay chained directly onto the previous one starts from a
	// pure shift of the template's exit state; its normalized vector
	// is provably the template's own, so only the span-dependent
	// checks (shape, addresses, external answers) remain.
	case !(h.lastTpl == tpl && h.lastEndNow == now && h.lastEndPos == pos) &&
		!(c.hbQuickState(now) == tpl.quick &&
			slices.Equal(c.hbEncode(now, pos), tpl.vec)):
		fail = &h.ctrs.PrecondVector
	case !c.hbShapeMatch(tpl, pos) || !c.hbAddrMatch(tpl, pos):
		fail = &h.ctrs.PrecondShape
	case !c.hbMemMatch(tpl, pos):
		fail = &h.ctrs.PrecondCache
	case !c.hbPredMatch(tpl, pos):
		fail = &h.ctrs.PrecondPred
	case !c.hbDepMatch(tpl, pos):
		fail = &h.ctrs.PrecondDep
	}
	if fail != nil {
		*fail++
		b.Misses++
		h.ctrs.InvalidationsPrecond++
		if b.Misses >= h.cfg.MaxPrecondMisses {
			b.Status = hotblock.Dead
			b.Template = nil
			b.ReviveAt = b.Count * 2
		} else if fail == &h.ctrs.PrecondCache && !tpl.allHit {
			// A periodic-miss template whose probe refused has seen its
			// miss pattern shift (warm-up taper, streaming phase change).
			// Recapture the current pattern now instead of burning the
			// whole miss budget on a stale one; Misses persists across
			// the re-arm, so a pattern that never recurs still dies.
			b.Status = hotblock.Hot
			b.Template = nil
		}
		return 0, false
	}
	c.hbApply(tpl, now, pos)
	b.Misses = 0
	h.ctrs.Replays++
	h.ctrs.ReplayedCycles += uint64(tpl.dc)
	h.ctrs.ReplayedInsts += uint64(tpl.dg)
	h.lastTpl = tpl
	h.lastEndNow = end
	h.lastEndPos = pos + tpl.dg
	return end, true
}

// hbShapeMatch verifies that the trace window the replay covers —
// backSpan positions of in-flight history plus the dg-instruction span
// — has field-for-field the same shape as the captured window. Seq,
// Addr, Target and NextPC are excluded: sequence numbers are
// position-relative by construction, addresses are checked as an
// equality partition (hbAddrMatch), and targets only matter through
// predictor agreement (hbPredMatch).
func (c *Core) hbShapeMatch(tpl *hbTemplate, pos int) bool {
	base := pos - tpl.backSpan
	cbase := tpl.capPos - tpl.backSpan
	if base == cbase {
		return true
	}
	tr := c.hb.tr
	n := tpl.backSpan + tpl.dg
	for i := 0; i < n; i++ {
		x, y := tr.At(cbase+i), tr.At(base+i)
		if x.PC != y.PC || x.Class != y.Class || x.Dst != y.Dst ||
			x.Src1 != y.Src1 || x.Src2 != y.Src2 || x.Src3 != y.Src3 ||
			x.Taken != y.Taken || x.Indirect != y.Indirect ||
			x.IsCall != y.IsCall || x.IsRet != y.IsRet {
			return false
		}
	}
	return true
}

// hbAddrMatch verifies the memory ops of the replay window induce the
// same address-equality partition as the captured window: position i
// and j touch the same address in the replay exactly when they did at
// capture. Forwarding, disambiguation and violation detection depend
// only on this partition (plus cache hits, checked separately).
func (c *Core) hbAddrMatch(tpl *hbTemplate, pos int) bool {
	h := c.hb
	base := pos - tpl.backSpan
	cbase := tpl.capPos - tpl.backSpan
	if base == cbase {
		return true
	}
	clear(h.addrA)
	clear(h.addrB)
	n := tpl.backSpan + tpl.dg
	k := int32(0)
	for i := 0; i < n; i++ {
		x := h.tr.At(cbase + i)
		if !x.IsLoad() && !x.IsStore() {
			continue
		}
		y := h.tr.At(base + i)
		ca, okA := h.addrA[x.Addr]
		cb, okB := h.addrB[y.Addr]
		if okA != okB || (okA && ca != cb) {
			return false
		}
		if !okA {
			h.addrA[x.Addr] = k
			h.addrB[y.Addr] = k
			k++
		}
	}
	return true
}

// hbMemMatch proves, with pure reads only, that the memory hierarchy
// would answer the span's access log with exactly the recorded
// latencies — the condition under which the span's timing evolution
// recurs. All-hit templates use the cheap Lookup path; periodic-miss
// templates replay the log against a copy-on-write probe.
func (c *Core) hbMemMatch(tpl *hbTemplate, pos int) bool {
	if tpl.allHit {
		return c.hbCacheMatch(tpl, pos)
	}
	return c.hbProbeMatch(tpl, pos)
}

// hbCacheMatch proves, with pure lookups, that every hierarchy access
// the span will make hits — the condition under which the hierarchy
// answers exactly as at capture (the template was closed under zero
// L1 misses, L2 accesses and prefetches). Fetches also require the next
// line present, because Hierarchy.Fetch stream-prefetches an absent
// next line even on a hit. Hits never evict, so the prechecked lines
// survive the replay's own (all-hit) accesses in hbApply.
func (c *Core) hbCacheMatch(tpl *hbTemplate, pos int) bool {
	tr := c.hb.tr
	l1i, l1d := c.hier.L1I, c.hier.L1D
	lineBytes := uint64(l1i.Config().LineBytes)
	for _, a := range tpl.mem {
		d := tr.At(pos + int(a.posOff))
		if a.kind == hbMemFetch {
			if !l1i.Lookup(d.PC) || !l1i.Lookup(l1i.LineAddr(d.PC)+lineBytes) {
				return false
			}
		} else if !l1d.Lookup(d.Addr) {
			return false
		}
	}
	return true
}

// hbProbeMatch replays the template's access log against a
// copy-on-write overlay of the live caches (mem.Probe) and requires
// every Fetch and Load to answer its recorded latency. Latency is the
// only part of a hierarchy response the core observes, so equality over
// the whole log proves the ticked span would evolve exactly as at
// capture — including periodic misses, evictions, prefetches and
// peer-line invalidations, which the probe simulates in captured order.
// Store latencies are recorded but not compared (the store-commit site
// discards them); stores still run through the probe because their
// state effects feed later fetch/load answers.
func (c *Core) hbProbeMatch(tpl *hbTemplate, pos int) bool {
	h := c.hb
	if h.probe == nil {
		h.probe = mem.NewProbe()
	}
	p := h.probe
	p.Reset()
	for _, a := range tpl.mem {
		d := h.tr.At(pos + int(a.posOff))
		switch a.kind {
		case hbMemFetch:
			if p.Fetch(c.hier, d.PC) != int(a.lat) {
				return false
			}
		case hbMemLoad:
			if p.Load(c.hier, d.Addr) != int(a.lat) {
				return false
			}
		case hbMemStore:
			p.Store(c.hier, d.Addr)
		}
	}
	return true
}

// hbPredMatch simulates the span's branch-predictor observation
// sequence on a side-effect-free overlay and requires it all-correct —
// the condition the template was captured under (zero mispredict
// delta), and the one under which prediction outcomes cannot perturb
// timing. The real Observe* calls are then applied in hbApply, which
// the overlay guarantees will take identical paths.
func (c *Core) hbPredMatch(tpl *hbTemplate, pos int) bool {
	if c.pred == nil {
		return false
	}
	tr := c.hb.tr
	s := c.hb.scratch
	s.Reset(c.pred)
	for i := 0; i < tpl.dg; i++ {
		d := tr.At(pos + i)
		switch d.Class {
		case isa.ClassBranch:
			if !s.TryBranch(d.PC, d.Taken) {
				return false
			}
		case isa.ClassJump:
			ok := true
			switch {
			case d.IsRet:
				ok = s.TryReturn(d.Target)
			case d.Indirect:
				ok = s.TryIndirect(d.PC, d.Target)
			}
			if d.IsCall {
				s.TryCall(d.PC + isa.InstBytes)
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// hbDepMatch proves the dependence predictor would answer the span's
// query log exactly as at capture: no periodic table clear falls inside
// the span's op-count advance, and every queried PC's table bit still
// matches the recorded answer.
func (c *Core) hbDepMatch(tpl *hbTemplate, pos int) bool {
	p := c.dep
	if p.table == nil || tpl.depCalls == 0 {
		return true
	}
	if p.clearAt == 0 || p.ops+tpl.depCalls >= p.clearAt {
		return false
	}
	tr := c.hb.tr
	for _, q := range tpl.dep {
		d := tr.At(pos + int(q.posOff))
		if (p.table[p.index(d.PC)] != 0) != q.wait {
			return false
		}
	}
	return true
}

// hbApply commits the replay: external state advances through the real
// predictor/hierarchy/dep-predictor interfaces (in the captured order,
// with the replay window's own PCs and addresses), the report absorbs
// the template's delta, and every in-flight structure shifts by
// (dg instructions, dc cycles).
func (c *Core) hbApply(tpl *hbTemplate, now int64, pos int) {
	h := c.hb
	tr := h.tr
	dg := uint64(tpl.dg)
	dc := tpl.dc

	if c.pred != nil {
		for i := 0; i < tpl.dg; i++ {
			d := tr.At(pos + i)
			switch d.Class {
			case isa.ClassBranch:
				if !c.pred.ObserveBranch(d.PC, d.Taken) {
					panic("ooo: hotblock predictor diverged from precheck")
				}
			case isa.ClassJump:
				ok := true
				switch {
				case d.IsRet:
					ok = c.pred.ObserveReturn(d.Target)
				case d.Indirect:
					ok = c.pred.ObserveIndirect(d.PC, d.Target)
				}
				if d.IsCall {
					c.pred.ObserveCall(d.PC + isa.InstBytes)
				}
				if !ok {
					panic("ooo: hotblock predictor diverged from precheck")
				}
			}
		}
	}
	for _, a := range tpl.mem {
		d := tr.At(pos + int(a.posOff))
		switch a.kind {
		case hbMemFetch:
			c.hier.Fetch(d.PC)
		case hbMemLoad:
			c.hier.Load(d.Addr)
		case hbMemStore:
			c.hier.Store(d.Addr)
		}
	}
	c.dep.ops += tpl.depCalls

	addReport(&c.rpt, &tpl.delta)
	c.hbShiftState(tr, dg, dc)
	c.lastCommitAt = now + tpl.lastCommitOff
	h.ts.pos = pos + tpl.dg
}

// hbShiftState bulk-shifts every in-flight structure of the core by
// (dg instructions, dc cycles): the shift half of a hot-block replay.
// The caller owns the rest of the replay — external-state updates, the
// report delta, lastCommitAt and the stream cursor.
func (c *Core) hbShiftState(tr *trace.Trace, dg uint64, dc int64) {
	// Shift the window: clear every live window-table slot first so the
	// re-inserts can assert collision freedom, then shift each uop in
	// place (pointers — and with them the rat, lq/sq/cand entries and
	// waiter chains — stay valid).
	for i := 0; i < c.rob.len(); i++ {
		c.wdelete(c.rob.at(i))
	}
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		c.hbShiftUOp(u, tr, dg, dc)
		idx := u.Item.GSeq & c.wmask
		if c.wtab[idx] != nil {
			panic("ooo: hotblock window collision")
		}
		c.wtab[idx] = u
	}
	for i := 0; i < c.fetchq.len(); i++ {
		c.hbShiftUOp(c.fetchq.at(i), tr, dg, dc)
	}
	for i := 0; i < c.defq.len(); i++ {
		// Deferred uops are committed: only their recycling time and the
		// stale-pointer guard (GSeq) are ever read again.
		u := c.defq.at(i)
		u.Item.GSeq += dg
		u.completeAt += dc
	}

	c.fetchStallUntil += dc // an expired stall stays expired
	if c.branchActive {
		c.branchGSeq += dg
		if c.branchResume != notReady {
			c.branchResume += dc
		}
	}
	if c.nextWake != sleepForever {
		c.nextWake += dc
	}
	if c.sqOldestUnissued != freedGSeq {
		c.sqOldestUnissued += dg
	}
	for k := range c.mulDivBusy {
		for i := range c.mulDivBusy[k] {
			c.mulDivBusy[k][i] += dc
		}
		for i := range c.fpDivBusy[k] {
			c.fpDivBusy[k][i] += dc
		}
	}
}

// hbShiftUOp moves one live uop dg instructions and dc cycles forward.
// The DI repoint is what makes the shift exact rather than symbolic:
// after it, the uop set is literally the one a ticked execution of the
// replay span would hold. Producer pointers whose recorded GSeq went
// stale (producer committed) shift their GSeq too — the stored value is
// provably below the window, so the shifted value still mismatches every
// live slot and keeps reading as "architecturally ready".
func (c *Core) hbShiftUOp(u *UOp, tr *trace.Trace, dg uint64, dc int64) {
	g := u.Item.GSeq + dg
	u.Item.GSeq = g
	u.Item.DI = tr.At(int(g))
	if u.completeAt != notReady {
		u.completeAt += dc
	}
	if u.wakeAt != sleepForever {
		u.wakeAt += dc
	}
	u.dispatchReady += dc
	u.issuedAt += dc
	u.fetchedAt += dc
	if u.waitingOn != freedGSeq {
		u.waitingOn += dg
	}
	for i := 0; i < u.nsrc; i++ {
		if u.prods[i] != nil {
			u.prodGSeq[i] += dg
		}
	}
	if u.hasFwd {
		u.fwdGSeq += dg
	}
}

// ------------------------------------------------------- state encoding

// hbQuickState is the cheap scalar prefilter compared before any full
// vector encode; every component is a function of vector fields, so a
// quick mismatch implies a vector mismatch.
func (c *Core) hbQuickState(now int64) hbQuick {
	fs, br := int32(0), int32(0)
	if c.fetchStallUntil > now {
		fs = 1
	}
	if c.branchActive {
		br = 1
	}
	return hbQuick{
		int32(c.rob.len()), int32(c.fetchq.len()), int32(c.lq.len()),
		int32(c.sq.len()), int32(c.sqUnissued), int32(c.defq.len()), fs, br,
	}
}

// hbEncode writes the core's normalized state vector at a drain top
// into the controller's reusable buffer. Times are relative to now,
// sequence numbers to pos; values whose exact magnitude is
// unobservable (expired stalls, results complete past the bypass
// window, cleared producer links) collapse to canonical forms, so two
// machine states compare equal exactly when their futures evolve
// identically over identical inputs. Records are self-delimiting
// (explicit flags and source counts), so streams of different layouts
// can never alias.
//
// Deliberate omissions, each proven unobservable at a drain top with
// nil hooks: extWaitAt (≡ -2: no external polls without hooks),
// speculative/mispredicted flags (read only by hooks/squash paths whose
// absence the template guarantees), the waiter chains (derivable from
// waitingOn; order is immaterial because wake walks filter by GSeq),
// the candidate list and lq/sq membership (derivable from the ROB), the
// pool (invisible until allocated), and hasViolation (always false
// between cycles).
func (c *Core) hbEncode(now int64, pos int) []int64 {
	v := c.hb.vecbuf[:0]
	p := int64(pos)
	bypass := int64(c.cfg.CrossClusterBypass)

	offG := func(g uint64) int64 {
		if g == freedGSeq {
			return hbNone
		}
		return int64(g) - p
	}
	clamp0 := func(x int64) int64 {
		if x < 0 {
			return 0
		}
		return x
	}

	v = append(v, int64(c.rob.len()), int64(c.fetchq.len()), int64(c.lq.len()),
		int64(c.sq.len()), int64(c.defq.len()), int64(c.sqUnissued),
		offG(c.sqOldestUnissued), clamp0(c.fetchStallUntil-now), int64(c.lastFetchLine))
	for k := 0; k < c.cfg.Clusters; k++ {
		v = append(v, int64(c.iqCount[k]))
	}
	if c.branchActive {
		br := int64(hbNone)
		if c.branchResume != notReady {
			br = clamp0(c.branchResume - now)
		}
		v = append(v, 1, int64(c.branchGSeq)-p, br)
	} else {
		v = append(v, 0, hbNone, hbNone)
	}
	for k := 0; k < c.cfg.Clusters; k++ {
		for _, t := range c.mulDivBusy[k] {
			v = append(v, clamp0(t-now))
		}
		for _, t := range c.fpDivBusy[k] {
			v = append(v, clamp0(t-now))
		}
	}
	// Issue-scan sleep state: scanIdle with an already-passed nextWake
	// rescans exactly like not idle at all.
	if c.scanIdle && c.nextWake > now {
		nw := int64(hbNone)
		if c.nextWake != sleepForever {
			nw = c.nextWake - now
		}
		v = append(v, 1, nw)
	} else {
		v = append(v, 0, hbNone)
	}
	for r := range c.rat {
		if u := c.rat[r]; u != nil {
			v = append(v, int64(u.Item.GSeq)-p)
		} else {
			v = append(v, hbNone)
		}
	}

	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		v = append(v, int64(u.Item.GSeq)-p, int64(u.Cluster))
		if u.issued {
			// Results complete past the bypass window all read as
			// "ready"; clamp them to one canonical value.
			ca := u.completeAt - now
			if floor := -(bypass + 1); ca < floor {
				ca = floor
			}
			v = append(v, 1, ca)
		} else {
			wk := int64(hbNone)
			if u.wakeAt != sleepForever {
				wk = clamp0(u.wakeAt - now)
			}
			v = append(v, 0, int64(u.waitSrc), wk, offG(u.waitingOn), int64(u.nsrc))
			for s := 0; s < u.nsrc; s++ {
				if pr := u.prods[s]; pr != nil && pr.Item.GSeq == u.prodGSeq[s] {
					v = append(v, int64(u.prodGSeq[s])-p)
				} else {
					// Absent or stale producer link: the operand is
					// architecturally ready either way.
					v = append(v, hbNone)
				}
			}
		}
		if u.hasFwd {
			v = append(v, int64(u.fwdGSeq)-p)
		} else {
			v = append(v, hbNone)
		}
	}
	for i := 0; i < c.fetchq.len(); i++ {
		// Pre-dispatch uops carry fixed defaults in every other field
		// (wakeAt 0, waitSrc -1, completeAt notReady); dependence links
		// resolved early by a stalled dispatchGate normalize to
		// architectural-ready and need no encoding.
		u := c.fetchq.at(i)
		v = append(v, int64(u.Item.GSeq)-p, clamp0(u.dispatchReady-now))
	}
	for i := 0; i < c.defq.len(); i++ {
		u := c.defq.at(i)
		v = append(v, int64(u.Item.GSeq)-p, u.completeAt-now, int64(u.Cluster))
	}
	c.hb.vecbuf = v
	return v
}

// ------------------------------------------------------ report algebra

// reportDelta returns cur - base, field by field.
func reportDelta(cur, base *Report) Report {
	return Report{
		Cycles:              cur.Cycles - base.Cycles,
		Committed:           cur.Committed - base.Committed,
		Replicas:            cur.Replicas - base.Replicas,
		Fetched:             cur.Fetched - base.Fetched,
		Issued:              cur.Issued - base.Issued,
		Squashed:            cur.Squashed - base.Squashed,
		BranchMispredicts:   cur.BranchMispredicts - base.BranchMispredicts,
		IndirectMispredicts: cur.IndirectMispredicts - base.IndirectMispredicts,
		MemViolations:       cur.MemViolations - base.MemViolations,
		Squashes:            cur.Squashes - base.Squashes,
		LoadsForwarded:      cur.LoadsForwarded - base.LoadsForwarded,
		LoadsSpeculative:    cur.LoadsSpeculative - base.LoadsSpeculative,
		FetchStallBranch:    cur.FetchStallBranch - base.FetchStallBranch,
		FetchStallICache:    cur.FetchStallICache - base.FetchStallICache,
		FetchStallROB:       cur.FetchStallROB - base.FetchStallROB,
		FetchStallIQ:        cur.FetchStallIQ - base.FetchStallIQ,
		FetchStallLSQ:       cur.FetchStallLSQ - base.FetchStallLSQ,
		FetchStallCopy:      cur.FetchStallCopy - base.FetchStallCopy,
		CyclesActive:        cur.CyclesActive - base.CyclesActive,
		CyclesFetchStarved:  cur.CyclesFetchStarved - base.CyclesFetchStarved,
		CyclesIssueWait:     cur.CyclesIssueWait - base.CyclesIssueWait,
		CyclesChannelWait:   cur.CyclesChannelWait - base.CyclesChannelWait,
		CyclesExecute:       cur.CyclesExecute - base.CyclesExecute,
		CyclesCommitBlocked: cur.CyclesCommitBlocked - base.CyclesCommitBlocked,
	}
}

// addReport accumulates d into dst, field by field.
func addReport(dst, d *Report) {
	dst.Cycles += d.Cycles
	dst.Committed += d.Committed
	dst.Replicas += d.Replicas
	dst.Fetched += d.Fetched
	dst.Issued += d.Issued
	dst.Squashed += d.Squashed
	dst.BranchMispredicts += d.BranchMispredicts
	dst.IndirectMispredicts += d.IndirectMispredicts
	dst.MemViolations += d.MemViolations
	dst.Squashes += d.Squashes
	dst.LoadsForwarded += d.LoadsForwarded
	dst.LoadsSpeculative += d.LoadsSpeculative
	dst.FetchStallBranch += d.FetchStallBranch
	dst.FetchStallICache += d.FetchStallICache
	dst.FetchStallROB += d.FetchStallROB
	dst.FetchStallIQ += d.FetchStallIQ
	dst.FetchStallLSQ += d.FetchStallLSQ
	dst.FetchStallCopy += d.FetchStallCopy
	dst.CyclesActive += d.CyclesActive
	dst.CyclesFetchStarved += d.CyclesFetchStarved
	dst.CyclesIssueWait += d.CyclesIssueWait
	dst.CyclesChannelWait += d.CyclesChannelWait
	dst.CyclesExecute += d.CyclesExecute
	dst.CyclesCommitBlocked += d.CyclesCommitBlocked
}
