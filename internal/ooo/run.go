package ooo

import (
	"errors"
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

// maxCyclesPerInst bounds simulations against livelock bugs: a run that
// exceeds this many cycles per trace instruction is declared livelocked
// rather than spinning forever.
const maxCyclesPerInst = 2000

// LivelockWindow is the no-progress bound of the watchdog: a machine
// that goes this many consecutive cycles without committing a single
// instruction is livelocked. No correct configuration can stall a
// commit that long — the worst legitimate chain (DRAM misses, full
// queues, channel contention) resolves within a few thousand cycles —
// so this fires long before the absolute cycle limit and the snapshot
// it produces describes the stalled state, not millions of cycles of
// spinning afterwards.
const LivelockWindow = 100_000

// ErrLivelock is the sentinel every livelock diagnostic wraps; use
// errors.Is(err, ooo.ErrLivelock) to classify a failed run and
// errors.As with *ooo.LivelockError / *core.LivelockError for the
// forensic snapshot.
var ErrLivelock = errors.New("simulation livelock")

// LivelockError is the single-core watchdog diagnostic: a snapshot of
// the stalled machine at detection time.
type LivelockError struct {
	// Core names the stalled core configuration.
	Core string
	// Cycles is the cycle the watchdog fired at; SinceCommit how many
	// of those elapsed since the last committed instruction.
	Cycles      int64
	SinceCommit int64
	// Committed of TraceLen instructions had retired.
	Committed uint64
	TraceLen  int
	// InFlight is the ROB occupancy at detection.
	InFlight int
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf(
		"core %s: livelock at cycle %d (%d cycles without commit; committed %d of %d, %d in flight)",
		e.Core, e.Cycles, e.SinceCommit, e.Committed, e.TraceLen, e.InFlight)
}

func (e *LivelockError) Unwrap() error { return ErrLivelock }

// Stepper is a machine the drain loop advances: a single or fused
// *Core, or the two-core Fg-STP machine of internal/core. The loop
// makes one Step call per ticked cycle; NextEvent and SkipTo serve the
// event-driven time advance (skip.go) and run only after an idle tick.
type Stepper interface {
	// Progress reports the count the watchdog watches (committed
	// instructions, or the global commit pointer) and whether the
	// machine has drained, before the first cycle.
	Progress() (committed uint64, done bool)
	// Step simulates cycle now and reports the same two facts after it,
	// plus whether the cycle moved anything at all.
	Step(now int64) (committed uint64, done, moved bool)
	// NextEvent returns now when cycle now must be simulated, else the
	// first cycle anything can happen; SkipTo replays the bookkeeping of
	// the dead cycles [from, to) in bulk.
	NextEvent(now int64) int64
	SkipTo(from, to int64)
	// Livelock builds the watchdog diagnostic at cycle now, sinceCommit
	// cycles after the watched count last moved; it wraps ErrLivelock.
	Livelock(now, sinceCommit int64, traceLen int) error
}

// Drain runs m over a traceLen-instruction trace to completion,
// jumping the clock over dead spans, and returns the final cycle count
// (see Run).
func Drain(m Stepper, traceLen int) (int64, error) {
	total, _, err := Run(m, traceLen, true, 0)
	return total, err
}

// DrainTicked is Drain without event-driven skipping: every cycle is
// simulated individually. It is the reference the skip-vs-tick
// differential tests compare Drain against; both must produce
// identical reports and cycle counts.
func DrainTicked(m Stepper, traceLen int) (int64, error) {
	total, _, err := Run(m, traceLen, false, 0)
	return total, err
}

// Run is the one drain loop: it cycles m until it has drained and
// returns the final cycle count and warmEnd, the cycle by which the
// watched count first reached warmInsts (total when it never did) — the
// boundary between a sampled slice's warmup and measured regions. skip
// enables event-driven time advance. A livelocked run — no progress for
// LivelockWindow cycles, or past the absolute per-instruction cycle
// limit — returns m.Livelock's diagnostic instead of spinning forever.
func Run(m Stepper, traceLen int, skip bool, warmInsts uint64) (total, warmEnd int64, err error) {
	limit := int64(traceLen+1000) * maxCyclesPerInst
	var now, lastProgress int64
	committed, done := m.Progress()
	last := committed
	warmEnd = -1
	if committed >= warmInsts {
		warmEnd = 0
	}
	// idle: the last ticked cycle moved nothing, so the next one may be
	// dead. After a busy cycle NextEvent almost always answers "now",
	// and ticking a dead cycle is exact anyway, so the loop asks only
	// after an idle one. A dead span commits nothing and cannot finish
	// the run, so committed and done carry across a skip unchanged.
	idle := true
	for !done {
		if committed != last {
			last, lastProgress = committed, now
		}
		if now-lastProgress > LivelockWindow || now > limit {
			return now, now, m.Livelock(now, now-lastProgress, traceLen)
		}
		if skip && idle {
			if next := m.NextEvent(now); next > now {
				// Clamp so the watchdog fires at exactly the cycle a
				// ticked run would have reached before tripping.
				if w := lastProgress + LivelockWindow + 1; next > w {
					next = w
				}
				if next > limit+1 {
					next = limit + 1
				}
				m.SkipTo(now, next)
				now = next
				idle = false // next is an event (or the watchdog fires)
				continue
			}
		}
		var moved bool
		committed, done, moved = m.Step(now)
		now++
		idle = !moved
		if warmEnd < 0 && committed >= warmInsts {
			warmEnd = now
		}
	}
	if warmEnd < 0 {
		warmEnd = now
	}
	return now, warmEnd, nil
}

// Progress implements Stepper: committed instructions and whether the
// core has drained.
func (c *Core) Progress() (uint64, bool) { return c.rpt.Committed, c.Done() }

// Step implements Stepper: one Cycle, reported.
func (c *Core) Step(now int64) (committed uint64, done, moved bool) {
	work := c.Activity()
	c.Cycle(now)
	return c.rpt.Committed, c.Done(), c.Activity() != work
}

// Livelock implements Stepper: a snapshot of the stalled core.
func (c *Core) Livelock(now, sinceCommit int64, traceLen int) error {
	return &LivelockError{
		Core:        c.cfg.Name,
		Cycles:      now,
		SinceCommit: sinceCommit,
		Committed:   c.rpt.Committed,
		TraceLen:    traceLen,
		InFlight:    c.rob.len(),
	}
}

// Summarize converts a finished core's report into a stats.Run.
func Summarize(core *Core, tr *trace.Trace, mode string, cycles int64) stats.Run {
	rpt := core.Report()
	r := stats.Run{
		Workload: tr.Name,
		Mode:     mode,
		Cycles:   uint64(cycles),
		Insts:    rpt.Committed,
	}
	r.Set("branch_mispredicts", float64(rpt.BranchMispredicts))
	r.Set("indirect_mispredicts", float64(rpt.IndirectMispredicts))
	r.Set("mem_violations", float64(rpt.MemViolations))
	r.Set("squashes", float64(rpt.Squashes))
	r.Set("loads_forwarded", float64(rpt.LoadsForwarded))
	r.Set("loads_speculative", float64(rpt.LoadsSpeculative))
	r.Set("l1d_miss_rate", core.Hier().L1D.Stats.MissRate())
	r.Set("l2_miss_rate", core.Hier().L2.Stats.MissRate())
	r.Set("fetched_uops", float64(rpt.Fetched))
	r.Set("issued_uops", float64(rpt.Issued))
	r.Set("squashed_uops", float64(rpt.Squashed))
	SetStallMetrics(&r, "", &rpt)
	h := core.Hier()
	r.Set("l1i_accesses", float64(h.L1I.Stats.Accesses))
	r.Set("l1d_accesses", float64(h.L1D.Stats.Accesses))
	r.Set("l2_accesses", float64(h.L2.Stats.Accesses))
	r.Set("dram_accesses", float64(h.DRAMAccesses))
	r.Set("active_cores", 1)
	if p := core.Predictor(); p != nil {
		r.Set("bpred_accuracy", p.Accuracy())
	}
	return r
}

// SetStallMetrics records a core report's per-stage stall breakdown on
// r under prefix ("" for a single core, "core0_"/"core1_" for the
// Fg-STP pair): the six CPI-stack cycle buckets, which sum to the
// core's total cycles, plus the front-end dispatch-stall causes.
func SetStallMetrics(r *stats.Run, prefix string, rpt *Report) {
	r.Set(prefix+"cycles_active", float64(rpt.CyclesActive))
	r.Set(prefix+"cycles_fetch_starved", float64(rpt.CyclesFetchStarved))
	r.Set(prefix+"cycles_issue_wait", float64(rpt.CyclesIssueWait))
	r.Set(prefix+"cycles_channel_wait", float64(rpt.CyclesChannelWait))
	r.Set(prefix+"cycles_execute", float64(rpt.CyclesExecute))
	r.Set(prefix+"cycles_commit_blocked", float64(rpt.CyclesCommitBlocked))
	r.Set(prefix+"dispatch_stall_rob", float64(rpt.FetchStallROB))
	r.Set(prefix+"dispatch_stall_iq", float64(rpt.FetchStallIQ))
	r.Set(prefix+"dispatch_stall_lsq", float64(rpt.FetchStallLSQ))
	r.Set(prefix+"dispatch_stall_copy", float64(rpt.FetchStallCopy))
}
