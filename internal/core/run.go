package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/ooo"
	"repro/internal/stats"
	"repro/internal/trace"
)

// maxCyclesPerInst bounds runs against livelock bugs.
const maxCyclesPerInst = 2000

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

// RunOptions bundles the optional knobs of an Fg-STP run. The zero
// value simulates plainly.
type RunOptions struct {
	// Faults optionally injects deterministic faults (nil: none).
	// Injected faults that starve the machine surface as a
	// *LivelockError from the watchdog, not a hang.
	Faults Faults
	// Sink receives pipeline events from the machine and both cores;
	// the events render into a Chrome trace via metrics.WriteChromeTrace.
	Sink metrics.Sink
}

// RunWith simulates tr to completion on an Fg-STP machine built from
// cfg under opts and returns the run summary — the Fg-STP data point of
// every experiment.
func RunWith(cfg config.Machine, tr *trace.Trace, opts RunOptions) (stats.Run, error) {
	m, err := NewMachine(cfg, tr)
	if err != nil {
		return stats.Run{}, err
	}
	m.SetFaults(opts.Faults)
	if opts.Sink != nil {
		m.SetEventSink(opts.Sink)
	}
	cycles, err := m.Drain()
	if err != nil {
		return stats.Run{}, err
	}
	return m.Summarize(cycles), nil
}

// Drain cycles the machine until the whole trace has committed and
// returns the cycle count, jumping the clock over dead spans via
// NextEvent/SkipTo (see skip.go). A livelocked run — no commit progress
// for ooo.LivelockWindow cycles, or the absolute per-instruction cycle
// limit exceeded — returns a *LivelockError snapshot instead of
// spinning forever; the snapshot is taken at exactly the cycle a ticked
// run would have fired at, because skips are clamped to the watchdog
// bounds.
func (m *Machine) Drain() (int64, error) {
	return m.drain(true)
}

// DrainTicked is Drain without event-driven skipping: every cycle is
// simulated individually. It exists for the skip-vs-tick differential
// tests; both paths must produce identical summaries and cycle counts.
func (m *Machine) DrainTicked() (int64, error) {
	return m.drain(false)
}

func (m *Machine) drain(skip bool) (int64, error) {
	limit := int64(m.tr.Len()+1000) * maxCyclesPerInst
	var now, lastProgress int64
	lastCommit := m.nextCommit
	for !m.Done() {
		if m.nextCommit != lastCommit {
			lastCommit, lastProgress = m.nextCommit, now
		}
		if now-lastProgress > ooo.LivelockWindow || now > limit {
			return now, m.livelockSnapshot(now, now-lastProgress)
		}
		if skip {
			if next := m.NextEvent(now); next > now {
				if w := lastProgress + ooo.LivelockWindow + 1; next > w {
					next = w
				}
				if next > limit+1 {
					next = limit + 1
				}
				m.SkipTo(now, next)
				now = next
				continue
			}
		}
		m.Cycle(now)
		now++
	}
	return now, nil
}

// livelockSnapshot assembles the watchdog diagnostic at cycle now.
func (m *Machine) livelockSnapshot(now, sinceCommit int64) *LivelockError {
	e := &LivelockError{
		Cycles:          now,
		SinceCommit:     sinceCommit,
		NextCommit:      m.nextCommit,
		TraceLen:        m.tr.Len(),
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

// Sequencer stats accessors used by tests and the characterisation
// experiment.
func (m *Machine) SequencerMispredicts() uint64 { return m.seq.Mispredicts }

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
// like examples/tracetool.
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
