package core

import (
	"repro/internal/config"
	"repro/internal/gseqtab"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/ooo"
	"repro/internal/trace"
)

// issuedBit flags a storeTracker entry as issued, in the entry itself:
// gseqs are trace indexes and never approach 2^63, so the top bit is
// free, and folding the flag into the sorted slice removes the side
// map the old tracker consulted (and mutated) on every query.
const issuedBit = uint64(1) << 63

// storeTracker tracks delivered-but-unissued stores of one core, the
// set a remote load must consider for memory-dependence speculation.
// Gseqs arrive in ascending (delivery) order, so pend is sorted by
// masked gseq; entries at the front are dropped once issued, entries
// at the back on squash.
type storeTracker struct {
	pend []uint64 // gseq | issuedBit
	head int
}

func newStoreTracker() *storeTracker {
	// Capacity bound: the compaction slack (head up to 4096) plus a
	// lookahead window's worth of live stores. Preallocating it keeps
	// the tracker allocation-free for the whole run.
	return &storeTracker{pend: make([]uint64, 0, 8192)}
}

func (t *storeTracker) add(g uint64) { t.pend = append(t.pend, g) }

// markIssued flags store g. Binary search over the live region (the
// entries are sorted); a miss — a store the tracker never saw — is a
// no-op, exactly like setting a flag in the old side map was.
func (t *storeTracker) markIssued(g uint64) {
	lo, hi := t.head, len(t.pend)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.pend[mid]&^issuedBit < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.pend) && t.pend[lo]&^issuedBit == g {
		t.pend[lo] |= issuedBit
	}
}

// advance moves head past the issued prefix and compacts occasionally.
func (t *storeTracker) advance() {
	for t.head < len(t.pend) && t.pend[t.head]&issuedBit != 0 {
		t.head++
	}
	if t.head > 4096 {
		t.pend = append(t.pend[:0], t.pend[t.head:]...)
		t.head = 0
	}
}

// anyUnissuedBelow reports whether any unissued store older than gseq
// exists.
func (t *storeTracker) anyUnissuedBelow(gseq uint64) bool {
	t.advance()
	return t.head < len(t.pend) && t.pend[t.head]&^issuedBit < gseq
}

// rewind drops all tracked stores with gseq >= g (they will be
// redelivered after the squash).
func (t *storeTracker) rewind(g uint64) {
	i := len(t.pend)
	for i > t.head && t.pend[i-1]&^issuedBit >= g {
		i--
	}
	t.pend = t.pend[:i]
}

// Machine is a reconfigured 2-core Fg-STP system executing one thread.
type Machine struct {
	cfg config.Machine
	tr  *trace.Trace

	st    *steerer
	seq   *sequencer
	cores [2]*ooo.Core
	hiers [2]*mem.Hierarchy
	// chans[d] carries values into core d from its sibling.
	chans [2]*channel

	nextCommit uint64
	// commitFrontier is this cycle's collective-commit bound: every
	// instruction older than it has finished executing on both cores,
	// so either core may retire its own instructions up to it without
	// risking a squash of committed state.
	commitFrontier uint64

	depPred *ooo.DepPred
	// storeSets, when non-nil, replaces the load-wait policy: a load
	// bound to a store set waits only for that set's most recent
	// unissued store.
	storeSets *ooo.StoreSets
	// ssLast maps a store set to the gseq of its most recently
	// delivered store; unissuedStore tracks delivered-but-unissued
	// stores by gseq.
	ssLast        map[int32]uint64
	unissuedStore map[uint64]bool

	// completeAt records issued (non-replica) producers' completion
	// cycles; deliver memoises per-destination channel grants (keyed by
	// producer gseq — including, via the committed-state path, gseqs
	// pruned long ago, which is what the tables' spill maps absorb).
	completeAt *gseqtab.Table[int64]
	deliver    [2]*gseqtab.Table[int64]
	pruneMark  uint64

	// sleepers flags, per producer gseq (slot g&sleepMask), the cores
	// holding a consumer asleep until that producer issues (bit d: core
	// d). Sleeping producers are unissued, hence within the lookahead
	// window, so a ring twice the window never aliases two of them; a
	// flag left by a squashed consumer merely costs a WakeExt that
	// finds nobody.
	sleepers  []uint8
	sleepMask uint64

	pendingStores [2]*storeTracker

	hasSquash     bool
	pendingSquash uint64

	// faults, when non-nil, injects deterministic faults (testing and
	// fault drills; see internal/faults).
	faults Faults

	// sink, when non-nil, receives the machine's pipeline event stream
	// (steering, replication, value transfers, squashes, violations);
	// the cores additionally emit their issue/commit events into it.
	sink metrics.Sink

	// Last-squash forensics for the livelock watchdog snapshot.
	lastSquashGSeq  uint64
	lastSquashCycle int64

	// Stats.
	CrossViolations uint64
	GlobalSquashes  uint64
	SpecLoads       uint64
	GatedLoads      uint64
	ForwardedRemote uint64
}

// Faults is the fault-injection surface of the Fg-STP machine: the
// deterministic injector (internal/faults) implements it to force the
// failure modes the watchdog and recovery paths must survive. A nil
// Faults simulates normally.
type Faults interface {
	// ChannelStalled reports whether the inter-core value channel into
	// core dst refuses grants at cycle now. A permanent stall starves
	// every cross-core consumer and livelocks the machine — the
	// canonical watchdog drill.
	ChannelStalled(dst int, now int64) bool
}

// NewMachine assembles an Fg-STP system over a captured trace. It
// reports an error on an invalid configuration.
func NewMachine(cfg config.Machine, tr *trace.Trace) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg: cfg,
		tr:  tr,
	}
	// Side-table sizing: live keys span at most the lookahead window
	// plus the prune horizon (Window + 4*ROB below nextCommit), and
	// stale keys can linger for one prune period (8192 commits) on top.
	span := 2*cfg.FgSTP.Window + 4*cfg.Core.ROBSize + prunePeriod
	m.completeAt = gseqtab.New[int64](span)
	m.deliver[0] = gseqtab.New[int64](span)
	m.deliver[1] = gseqtab.New[int64](span)
	m.pendingStores[0] = newStoreTracker()
	m.pendingStores[1] = newStoreTracker()
	ring := 1
	for ring < 2*cfg.FgSTP.Window {
		ring <<= 1
	}
	m.sleepers = make([]uint8, ring)
	m.sleepMask = uint64(ring - 1)

	f := cfg.FgSTP
	depBits := f.DepPredBits
	if !f.DepSpeculation {
		depBits = 0
	}
	m.depPred = ooo.NewDepPred(depBits)
	if f.UseStoreSets && f.DepSpeculation {
		bits := f.DepPredBits
		if bits < 4 {
			bits = 11
		}
		m.storeSets = ooo.NewStoreSets(bits)
		m.ssLast = make(map[int32]uint64)
		m.unissuedStore = make(map[uint64]bool)
	}
	m.chans[0] = newChannel(f.CommLatency, f.CommBandwidth, f.CommQueue)
	m.chans[1] = newChannel(f.CommLatency, f.CommBandwidth, f.CommQueue)

	var err error
	m.hiers[0], m.hiers[1], err = mem.NewSharedL2Pair(cfg.Hier)
	if err != nil {
		return nil, err
	}
	m.st = newSteerer(f, cfg.Core.ROBSize, tr)
	m.seq, err = newSequencer(f, cfg.Core.Predictor, tr, m.st, m.hiers[0], m.hiers[1])
	if err != nil {
		return nil, err
	}
	m.seq.onDeliver = func(d *isa.DynInst, gseq uint64, home int, replica bool, now int64) {
		if d.IsStore() {
			m.pendingStores[home].add(gseq)
			if m.storeSets != nil {
				m.unissuedStore[gseq] = true
				if set := m.storeSets.SetOf(d.PC); set >= 0 {
					m.ssLast[set] = gseq
				}
			}
		}
		if m.sink != nil {
			m.sink.Emit(metrics.Event{
				Cycle: now, Core: home, Kind: metrics.EvSteer,
				GSeq: gseq, Detail: d.Class.String(),
			})
			if replica {
				m.sink.Emit(metrics.Event{
					Cycle: now, Core: 1 - home, Kind: metrics.EvReplicate,
					GSeq: gseq, Detail: d.Class.String(),
				})
			}
		}
	}

	ccfg := cfg.Core
	ccfg.ExternalFrontend = true
	ccfg.DepPredBits = depBits
	ccfg.GSeqWindow = f.Window
	for i := 0; i < 2; i++ {
		m.cores[i], err = ooo.NewCore(ccfg, m.hiers[i], m.seq.streams[i], &coreHooks{m: m, id: i})
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// SetFaults installs a fault injector; call it before Drain. A nil
// injector (the default) simulates normally.
func (m *Machine) SetFaults(f Faults) { m.faults = f }

// SetEventSink installs a pipeline event sink on the machine and both
// cores; call it before Drain. A nil sink (the default) disables
// emission entirely.
func (m *Machine) SetEventSink(sink metrics.Sink) {
	m.sink = sink
	m.cores[0].SetEventSink(sink, 0)
	m.cores[1].SetEventSink(sink, 1)
}

// Done reports whether the whole trace has committed.
func (m *Machine) Done() bool { return m.nextCommit >= uint64(m.tr.Len()) }

// Cycle advances the machine one clock: sequencer fill, both cores,
// then any pending global squash. The commit frontier is computed
// before the cores run, from last cycle's completion state — the
// distributed ROBs exchange completion pointers with one cycle of
// skew, as the dedicated commit fabric would.
func (m *Machine) Cycle(now int64) {
	m.commitFrontier = m.frontier(now - 1)
	m.seq.fill(now, m.nextCommit)
	m.cores[0].Cycle(now)
	m.cores[1].Cycle(now)
	if m.hasSquash {
		m.applySquash(now)
	}
	if m.nextCommit >= m.pruneMark+prunePeriod {
		m.prune(now)
	}
}

// activity sums the machine's progress counters: sequencer deliveries,
// global squashes and both cores' pipeline work (ooo.Core.Activity).
func (m *Machine) activity() uint64 {
	return m.seq.Delivered + m.GlobalSquashes +
		m.cores[0].Activity() + m.cores[1].Activity()
}

// prunePeriod is how many committed instructions elapse between prune
// passes over the communication side tables.
const prunePeriod = 8192

// requestSquash schedules a global squash from gseq at the end of the
// current cycle; concurrent requests keep the oldest.
func (m *Machine) requestSquash(gseq uint64) {
	if !m.hasSquash || gseq < m.pendingSquash {
		m.pendingSquash = gseq
		m.hasSquash = true
	}
}

func (m *Machine) applySquash(now int64) {
	g := m.pendingSquash
	m.hasSquash = false
	m.GlobalSquashes++
	m.lastSquashGSeq, m.lastSquashCycle = g, now
	if m.sink != nil {
		m.sink.Emit(metrics.Event{
			Cycle: now, Core: metrics.MachineScope, Kind: metrics.EvSquash,
			GSeq: g, Detail: "global",
		})
	}

	// Every per-gseq record keys a gseq below the delivery frontier;
	// capture it before the rewind moves it back to g.
	hi := m.seq.pos
	m.cores[0].SquashFrom(g, now)
	m.cores[1].SquashFrom(g, now)
	m.seq.rewind(g, now)
	for i := 0; i < 2; i++ {
		m.pendingStores[i].rewind(g)
		m.deliver[i].DeleteRange(g, hi)
	}
	m.completeAt.DeleteRange(g, hi)
	if m.storeSets != nil {
		for set, gs := range m.ssLast {
			if gs >= g {
				delete(m.ssLast, set)
			}
		}
		for gs := range m.unissuedStore {
			if gs >= g {
				delete(m.unissuedStore, gs)
			}
		}
	}
}

// prune drops communication bookkeeping for producers so old that no
// in-flight consumer can still reference them (consumers of producer p
// are steered within the lookahead window of p's commit), at the end of
// cycle now.
func (m *Machine) prune(now int64) {
	m.pruneMark = m.nextCommit
	if m.nextCommit < uint64(m.cfg.FgSTP.Window)+uint64(4*m.cfg.Core.ROBSize) {
		return
	}
	cut := m.nextCommit - uint64(m.cfg.FgSTP.Window) - uint64(4*m.cfg.Core.ROBSize)
	m.completeAt.DeleteBelow(cut)
	m.deliver[0].DeleteBelow(cut)
	m.deliver[1].DeleteBelow(cut)
	// A consumer still asleep on a delivery deleted here would, polled,
	// miss the memo and be granted a fresh transfer: wake it for the
	// next cycle's poll, as the answer it sleeps on no longer holds.
	m.cores[0].WakeExt(0, cut, now+1)
	m.cores[1].WakeExt(0, cut, now+1)
}

// coreHooks couples one core to the machine.
type coreHooks struct {
	m  *Machine
	id int
}

// ExtReadyAt implements ooo.Hooks: the operand arrives through the
// inter-core channel once its producer completes; the grant is computed
// lazily and memoised. Every answer after now binds the consumer until
// then: a delivery cycle stays put until prune forgets it (and wakes
// the consumer), and a producer that has not issued answers
// ooo.NoEvent, recorded in sleepers until OnIssue wakes the consumer.
func (h *coreHooks) ExtReadyAt(u *ooo.UOp, srcIdx int, now int64) int64 {
	m := h.m
	if m.faults != nil && m.faults.ChannelStalled(h.id, now) {
		// Injected fault: the channel refuses the grant this cycle. Do
		// not memoise — the consumer re-polls next cycle and recovers if
		// the stall is transient.
		return now + 1
	}
	p := u.Item.Deps[srcIdx].Producer
	if t, ok := m.deliver[h.id].Get(p); ok {
		return t
	}
	ct, ok := m.completeAt.Get(p)
	if !ok {
		if p < m.nextCommit {
			// Producer committed before this consumer dispatched (its
			// timing record may be pruned): the value travelled with
			// the committed state merge; charge one transfer from now.
			t := m.chans[h.id].grant(now)
			m.deliver[h.id].Put(p, t)
			m.emitTransfer(now, t, h.id, p)
			return t
		}
		m.sleepers[p&m.sleepMask] |= 1 << h.id
		return ooo.NoEvent
	}
	t := m.chans[h.id].grant(ct)
	m.deliver[h.id].Put(p, t)
	m.emitTransfer(ct, t, h.id, p)
	return t
}

// emitTransfer records a value crossing the inter-core channel into
// core dst: the span runs from the producer's completion (or the grant
// request) to the delivery cycle.
func (m *Machine) emitTransfer(from, until int64, dst int, producer uint64) {
	if m.sink == nil {
		return
	}
	dur := until - from
	if dur < 0 {
		dur = 0
	}
	m.sink.Emit(metrics.Event{
		Cycle: from, Dur: dur, Core: dst, Kind: metrics.EvTransfer,
		GSeq: producer, Detail: "value",
	})
}

// LoadGate implements ooo.Hooks: cross-core memory-dependence
// speculation.
func (h *coreHooks) LoadGate(u *ooo.UOp, now int64) (ok, speculative bool) {
	m := h.m
	other := 1 - h.id
	ps := m.pendingStores[other]
	if !ps.anyUnissuedBelow(u.GSeq()) {
		return true, false
	}
	if m.storeSets != nil {
		// Store-set policy: wait only for the specific predicted
		// producer store (if it is older and still unissued).
		if set := m.storeSets.SetOf(u.DI().PC); set >= 0 {
			if g, okSet := m.ssLast[set]; okSet && g < u.GSeq() && m.unissuedStore[g] {
				m.GatedLoads++
				return false, false
			}
		}
		m.SpecLoads++
		return true, true
	}
	if m.depPred.Perfect() {
		// Oracle gate: scan the sibling's unissued stores older than the
		// load for a true address conflict. Inlined (rather than a
		// visitor callback) so the hot path captures no closure.
		conflict := false
		for i := ps.head; i < len(ps.pend); i++ {
			e := ps.pend[i]
			if e&^issuedBit >= u.GSeq() {
				break
			}
			if e&issuedBit == 0 && m.tr.At(int(e&^issuedBit)).Addr == u.DI().Addr {
				conflict = true
				break
			}
		}
		if conflict {
			m.GatedLoads++
			return false, false
		}
		return true, false
	}
	if m.depPred.MustWait(u.DI().PC) {
		m.GatedLoads++
		return false, false
	}
	m.SpecLoads++
	return true, true
}

// LoadExtraLatency implements ooo.Hooks: a load whose value comes from
// an uncommitted remote store pays the channel latency for the
// forwarded data.
func (h *coreHooks) LoadExtraLatency(u *ooo.UOp) int {
	m := h.m
	if m.cores[1-h.id].HasIssuedStoreBelow(u.GSeq(), u.DI().Addr) {
		m.ForwardedRemote++
		return m.cfg.FgSTP.CommLatency
	}
	return 0
}

// OnIssue implements ooo.Hooks: record completions for the channel,
// track memory operations, detect cross-core ordering violations when
// store addresses resolve.
func (h *coreHooks) OnIssue(u *ooo.UOp, now int64) {
	m := h.m
	if !u.Item.Replica {
		m.completeAt.Put(u.GSeq(), u.CompleteAt())
		m.wakeSleepers(u.GSeq(), h.id, now)
	}
	if u.DI().IsStore() {
		m.pendingStores[h.id].markIssued(u.GSeq())
		if m.unissuedStore != nil {
			delete(m.unissuedStore, u.GSeq())
		}
		m.checkRemoteViolation(u, 1-h.id, now)
	}
	if m.seq.blocked && m.seq.blockedOn == u.GSeq() && !u.Item.Replica {
		m.seq.resolveBranch(u.GSeq(), u.CompleteAt())
	}
}

// wakeSleepers wakes the consumers asleep on producer g, which issued
// on core src at cycle now, for the cycle a polling consumer would
// first have seen its completion: this cycle on a core that runs after
// src within Machine.Cycle, the next cycle on one that already ran.
func (m *Machine) wakeSleepers(g uint64, src int, now int64) {
	slot := &m.sleepers[g&m.sleepMask]
	flags := *slot
	if flags == 0 {
		return
	}
	*slot = 0
	for d := 0; d < 2; d++ {
		if flags&(1<<d) == 0 {
			continue
		}
		at := now
		if d < src {
			at = now + 1
		}
		m.cores[d].WakeExt(g, g+1, at)
	}
}

// checkRemoteViolation looks for issued loads on the other core that
// are younger than the just-resolved store and read the same address
// with stale data (the oldest such load is the squash point; a load
// that forwarded from a store younger than s holds current data and is
// exempt — the core's conflict probe applies both rules).
func (m *Machine) checkRemoteViolation(s *ooo.UOp, otherCore int, now int64) {
	victim := m.cores[otherCore].FirstIssuedLoadConflict(s.GSeq(), s.DI().Addr)
	if victim == nil {
		return
	}
	m.CrossViolations++
	if m.sink != nil {
		m.sink.Emit(metrics.Event{
			Cycle: now, Core: otherCore, Kind: metrics.EvViolation,
			GSeq: victim.GSeq(), Detail: "cross-core load/store",
		})
	}
	m.depPred.Violation(victim.DI().PC)
	if m.storeSets != nil {
		m.storeSets.Union(victim.DI().PC, s.DI().PC)
	}
	m.requestSquash(victim.GSeq())
}

// OnComplete implements ooo.Hooks (the machine keys everything off
// OnIssue, which already knows the completion time).
func (h *coreHooks) OnComplete(u *ooo.UOp, now int64) {}

// CanCommit implements ooo.Hooks: collective in-order commit — a core
// may retire an instruction once everything older (on both cores) has
// finished executing, so retirement proceeds in parallel on both cores
// while committed state stays squash-safe.
func (h *coreHooks) CanCommit(u *ooo.UOp, now int64) bool {
	return u.GSeq() < h.m.commitFrontier
}

// OnCommit implements ooo.Hooks: the commit counts live beside the
// steering decisions, and the global commit pointer passes each
// instruction once all its copies (two when replicated) have committed.
// A squash victim that committed the same cycle its squash was
// requested recommits after the rewind, below the pointer; that count
// is never read again.
func (h *coreHooks) OnCommit(u *ooo.UOp, now int64) {
	m := h.m
	m.st.info(u.GSeq()).commits++
	for m.nextCommit < m.st.next {
		inf := m.st.info(m.nextCommit)
		want := uint8(1)
		if inf.replica {
			want = 2
		}
		if inf.commits != want {
			break
		}
		m.nextCommit++
	}
}

// frontier computes the oldest globally-unfinished gseq as of cycle
// now: instructions below it are safe to retire.
func (m *Machine) frontier(now int64) uint64 {
	f := m.seq.pos // undelivered instructions are unfinished
	if g, ok := m.cores[0].OldestUnfinished(now); ok && g < f {
		f = g
	}
	if g, ok := m.cores[1].OldestUnfinished(now); ok && g < f {
		f = g
	}
	return f
}

// OnViolation implements ooo.Hooks: local LSQ violations escalate to a
// global squash (commit order is global).
func (h *coreHooks) OnViolation(gseq uint64, now int64) bool {
	h.m.requestSquash(gseq)
	return true
}
