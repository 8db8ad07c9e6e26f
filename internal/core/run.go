package core

import (
	"fmt"

	"repro/internal/ooo"
	"repro/internal/stats"
)

// LivelockError is the Fg-STP watchdog diagnostic: a forensic snapshot
// of the stalled two-core machine at detection time. It wraps
// ooo.ErrLivelock, so errors.Is(err, ooo.ErrLivelock) classifies it and
// errors.As recovers the snapshot.
type LivelockError struct {
	// Cycles is the cycle the watchdog fired at; SinceCommit how many
	// of those elapsed since the global commit pointer last advanced.
	Cycles      int64
	SinceCommit int64
	// NextCommit is the stuck global commit pointer (oldest gseq not
	// fully committed) of a TraceLen-instruction trace; Delivered is
	// the sequencer's delivery frontier.
	NextCommit uint64
	TraceLen   int
	Delivered  uint64
	// Per-core state: committed instruction counts and ROB occupancy.
	Committed [2]uint64
	InFlight  [2]int
	// Channel state: values in flight per direction at detection time
	// and total transfers granted.
	ChanInFlight [2]int
	Transfers    [2]uint64
	// Squash forensics: total global squashes, and the gseq/cycle of
	// the most recent one (zero values when none happened).
	Squashes        uint64
	LastSquashGSeq  uint64
	LastSquashCycle int64
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("fgstp: livelock at cycle %d (%d cycles without commit; "+
		"next-commit gseq %d of %d, delivered %d; "+
		"core0 %d committed/%d in flight, core1 %d committed/%d in flight; "+
		"chan in-flight %d/%d, transfers %d/%d; "+
		"%d squashes, last at gseq %d cycle %d)",
		e.Cycles, e.SinceCommit,
		e.NextCommit, e.TraceLen, e.Delivered,
		e.Committed[0], e.InFlight[0], e.Committed[1], e.InFlight[1],
		e.ChanInFlight[0], e.ChanInFlight[1], e.Transfers[0], e.Transfers[1],
		e.Squashes, e.LastSquashGSeq, e.LastSquashCycle)
}

func (e *LivelockError) Unwrap() error { return ooo.ErrLivelock }

// Drain cycles the machine until the whole trace has committed and
// returns the cycle count, jumping the clock over dead spans (see
// ooo.Run, the drain loop, and skip.go). A livelocked run returns a
// *LivelockError snapshot, taken at exactly the cycle a ticked run
// would have fired at.
func (m *Machine) Drain() (int64, error) { return ooo.Drain(m, m.tr.Len()) }

// DrainTicked is Drain without event-driven skipping, the reference of
// the skip-vs-tick differential tests.
func (m *Machine) DrainTicked() (int64, error) { return ooo.DrainTicked(m, m.tr.Len()) }

// Progress implements ooo.Stepper: the watchdog watches the global
// commit pointer.
func (m *Machine) Progress() (uint64, bool) { return m.nextCommit, m.Done() }

// Step implements ooo.Stepper: one Cycle, reported.
func (m *Machine) Step(now int64) (committed uint64, done, moved bool) {
	work := m.activity()
	m.Cycle(now)
	return m.nextCommit, m.Done(), m.activity() != work
}

// Livelock implements ooo.Stepper: the forensic snapshot of the
// stalled machine at cycle now.
func (m *Machine) Livelock(now, sinceCommit int64, traceLen int) error {
	e := &LivelockError{
		Cycles:          now,
		SinceCommit:     sinceCommit,
		NextCommit:      m.nextCommit,
		TraceLen:        traceLen,
		Delivered:       m.seq.pos,
		Squashes:        m.GlobalSquashes,
		LastSquashGSeq:  m.lastSquashGSeq,
		LastSquashCycle: m.lastSquashCycle,
	}
	for i := 0; i < 2; i++ {
		rpt := m.cores[i].Report()
		e.Committed[i] = rpt.Committed
		e.InFlight[i] = m.cores[i].InFlight()
		e.ChanInFlight[i] = m.chans[i].occupancy(now)
		e.Transfers[i] = m.chans[i].Transfers
	}
	return e
}

// Summarize collects the machine-level statistics into a stats.Run.
func (m *Machine) Summarize(cycles int64) stats.Run {
	r := stats.Run{
		Workload: m.tr.Name,
		Mode:     "fgstp",
		Cycles:   uint64(cycles),
		Insts:    uint64(m.tr.Len()),
	}
	r.Set("branch_mispredicts", float64(m.seq.Mispredicts))
	r.Set("indirect_mispredicts", float64(m.seq.IndirectMiss))
	r.Set("bpred_accuracy", m.seq.pred.Accuracy())
	r.Set("squashes", float64(m.GlobalSquashes))
	r.Set("cross_violations", float64(m.CrossViolations))
	r.Set("loads_speculative", float64(m.SpecLoads))
	r.Set("loads_gated", float64(m.GatedLoads))
	r.Set("remote_forwards", float64(m.ForwardedRemote))

	rpt0, rpt1 := m.cores[0].Report(), m.cores[1].Report()
	r.Set("mem_violations", float64(rpt0.MemViolations+rpt1.MemViolations+m.CrossViolations))
	r.Set("replicas_committed", float64(rpt0.Replicas+rpt1.Replicas))
	r.Set("core0_committed", float64(rpt0.Committed))
	r.Set("core1_committed", float64(rpt1.Committed))
	ooo.SetStallMetrics(&r, "core0_", &rpt0)
	ooo.SetStallMetrics(&r, "core1_", &rpt1)

	st := m.st
	total := float64(st.Steered[0] + st.Steered[1])
	if total > 0 {
		r.Set("steer_core1_frac", float64(st.Steered[1])/total)
		r.Set("replicated_frac", float64(st.Replicated)/total)
	}
	deps := float64(st.RemoteDeps + st.LocalDeps)
	if deps > 0 {
		r.Set("remote_dep_frac", float64(st.RemoteDeps)/deps)
	}
	if m.tr.Len() > 0 {
		r.Set("comm_per_kinst",
			float64(m.chans[0].Transfers+m.chans[1].Transfers)/float64(m.tr.Len())*1000)
	}
	var delayed, transfers, delaySum uint64
	for _, c := range m.chans {
		delayed += c.Delayed
		transfers += c.Transfers
		delaySum += c.DelaySum
	}
	if transfers > 0 {
		r.Set("comm_delayed_frac", float64(delayed)/float64(transfers))
		r.Set("comm_delay_avg", float64(delaySum)/float64(transfers))
	}
	r.Set("window_stall_cycles", float64(m.seq.WindowStalls))
	r.Set("l1d_miss_rate",
		(m.hiers[0].L1D.Stats.MissRate()+m.hiers[1].L1D.Stats.MissRate())/2)
	r.Set("fetched_uops", float64(rpt0.Fetched+rpt1.Fetched))
	r.Set("issued_uops", float64(rpt0.Issued+rpt1.Issued))
	r.Set("squashed_uops", float64(rpt0.Squashed+rpt1.Squashed))
	r.Set("l1i_accesses",
		float64(m.hiers[0].L1I.Stats.Accesses+m.hiers[1].L1I.Stats.Accesses))
	r.Set("l1d_accesses",
		float64(m.hiers[0].L1D.Stats.Accesses+m.hiers[1].L1D.Stats.Accesses))
	// The L2 is shared: both hierarchies alias the same cache.
	r.Set("l2_accesses", float64(m.hiers[0].L2.Stats.Accesses))
	r.Set("dram_accesses", float64(m.hiers[0].DRAMAccesses+m.hiers[1].DRAMAccesses))
	r.Set("comm_transfers", float64(m.chans[0].Transfers+m.chans[1].Transfers))
	r.Set("active_cores", 2)
	return r
}

// Steerer exposes the steering unit (read-only) for characterisation
// experiments and tests.
func (m *Machine) Steerer() *steerer { return m.st }

// ChannelTransfers returns total cross-core value transfers.
func (m *Machine) ChannelTransfers() uint64 {
	return m.chans[0].Transfers + m.chans[1].Transfers
}

// CommittedOf returns per-core committed instruction counts (original,
// replica).
func (m *Machine) CommittedOf(core int) (uint64, uint64) {
	rpt := m.cores[core].Report()
	return rpt.Committed, rpt.Replicas
}

// SteerDecision exposes the steering decision for one instruction —
// its home core and whether it is replicated — for inspection tools
// like examples/tracetool. It decides instructions up to gseq if
// needed. Read decisions in order, within the window: the machine keeps
// only the last 2×Window+64 or more, and asking for an older one
// panics.
func SteerDecision(m *Machine, gseq uint64) (home int, replica bool) {
	inf := m.st.info(gseq)
	return int(inf.home), inf.replica
}

// CoreReports returns snapshots of both cores' statistics; sampling it
// between Cycle calls yields per-cycle activity (see examples/pipeview).
func (m *Machine) CoreReports() [2]ooo.Report {
	return [2]ooo.Report{m.cores[0].Report(), m.cores[1].Report()}
}

// NextCommit returns the global commit pointer (the oldest instruction
// not yet fully committed).
func (m *Machine) NextCommit() uint64 { return m.nextCommit }

// Squashes returns the number of global squashes so far.
func (m *Machine) Squashes() uint64 { return m.GlobalSquashes }
