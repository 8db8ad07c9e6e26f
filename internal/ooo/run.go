package ooo

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
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

// RunOptions bundles the optional knobs of a single-core run. The zero
// value means no event sink.
type RunOptions struct {
	// Sink receives pipeline events; they render into a Chrome trace via
	// metrics.WriteChromeTrace.
	Sink metrics.Sink
}

// RunTraceWith simulates tr to completion on a single core built from
// cfg and hcfg under opts, returning the run summary. This is the
// baseline configuration of every experiment; the fused and Fg-STP
// modes live in internal/corefusion and internal/core.
func RunTraceWith(cfg Config, hcfg mem.HierarchyConfig, tr *trace.Trace, opts RunOptions) (stats.Run, error) {
	hier, err := mem.NewHierarchy(hcfg)
	if err != nil {
		return stats.Run{}, err
	}
	core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
	if err != nil {
		return stats.Run{}, err
	}
	core.SetEventSink(opts.Sink, 0)
	now, err := Drain(core, tr.Len())
	if err != nil {
		return stats.Run{}, err
	}
	return Summarize(core, tr, "single", now), nil
}

// Drain cycles the core until it is done and returns the final cycle
// count, jumping the clock over dead spans via NextEvent/SkipTo (see
// skip.go). A livelocked simulation — no commit for LivelockWindow
// cycles, or the absolute per-instruction cycle limit exceeded —
// returns a *LivelockError wrapping ErrLivelock instead of spinning
// forever.
func Drain(core *Core, traceLen int) (int64, error) {
	return drain(core, traceLen, true)
}

// DrainTicked is Drain without event-driven skipping: every cycle is
// simulated individually. It exists for the skip-vs-tick differential
// tests; both paths must produce identical reports and cycle counts.
func DrainTicked(core *Core, traceLen int) (int64, error) {
	return drain(core, traceLen, false)
}

func drain(core *Core, traceLen int, skip bool) (int64, error) {
	limit := int64(traceLen+1000) * maxCyclesPerInst
	var now, lastProgress int64
	lastCommitted := core.Committed()
	for !core.Done() {
		if c := core.Committed(); c != lastCommitted {
			lastCommitted, lastProgress = c, now
		}
		if now-lastProgress > LivelockWindow || now > limit {
			return now, &LivelockError{
				Core:        core.Config().Name,
				Cycles:      now,
				SinceCommit: now - lastProgress,
				Committed:   lastCommitted,
				TraceLen:    traceLen,
				InFlight:    core.InFlight(),
			}
		}
		if skip {
			if next := core.NextEvent(now, nil); next > now {
				// Clamp so the watchdog fires at exactly the cycle a
				// ticked run would have reached before tripping.
				if w := lastProgress + LivelockWindow + 1; next > w {
					next = w
				}
				if next > limit+1 {
					next = limit + 1
				}
				core.SkipTo(now, next)
				now = next
				continue
			}
		}
		core.Cycle(now)
		now++
	}
	return now, nil
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
