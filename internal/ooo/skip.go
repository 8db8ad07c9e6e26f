package ooo

// Event-driven time advance. A cycle is *dead* when every pipeline
// stage would run and change nothing observable: nothing retires, no
// candidate can issue, the fetch-queue head cannot dispatch, and fetch
// is stalled (or has nothing to fetch). The issue stage's wake times
// already say exactly when the next state change can happen — every
// unissued candidate sleeps until a fixed cycle or until a producer's
// issue wakes it, local (startExec) or remote (WakeExt) — so NextEvent
// reads them out, and SkipTo replays, in bulk, the only mutations a
// ticked run of the dead span would have made: cycle counters,
// CPI-stack attribution and per-cycle stall counters. Ticking a dead
// cycle leaves the same state as skipping it, so the one run loop in
// run.go, which drives the two-core machine of internal/core too, asks
// NextEvent only after a ticked cycle that moved nothing and jumps the
// clock across the dead span it reports. The committed evaluation output is
// byte-identical to the ticked engine by construction, and the
// differential tests in skip_test.go check it over randomized configs
// and traces.

// NoEvent is NextEvent's "no computable future event" value. It is
// deliberately larger than any real cycle number but small enough that
// callers can add to it without overflow; the run-loop watchdog clamps
// every skip, so an all-NoEvent machine still fails at exactly the
// cycle the ticked watchdog would fire.
const NoEvent = int64(1) << 62

// NextEvent returns now when cycle now could retire, issue, dispatch or
// fetch anything — i.e. the cycle must be simulated — and otherwise the
// earliest future cycle at which any of those could first happen.
// Cycles in [now, NextEvent(now)) are dead; SkipTo(now, NextEvent(now))
// replays their bookkeeping in bulk.
//
// The scan is ordered pure-checks-first: the dispatch classification at
// the end resolves the head's dependences exactly as the ticked stage
// would, which is only state-identical once commit and issue are known
// to be dead this cycle.
func (c *Core) NextEvent(now int64) int64 {
	// Replicate Cycle(now)'s first stage up front: the dispatch
	// classification below reads the window table, and a ticked cycle
	// drains the deferred-release queue before dispatch looks anything
	// up. Draining here is exactly that work done early — Cycle(now)'s
	// own drain then finds nothing due, and during a dead span no fetch
	// runs, so the pool's recycle order is unchanged.
	if c.defq.len() > 0 {
		c.drainDeferred(now)
	}
	next := NoEvent

	// Commit: an issued head retires at its completion time, further
	// gated by the coordinator's commit fabric when hooks are attached.
	if c.rob.len() > 0 {
		if u := c.rob.front(); u.issued {
			e := u.completeAt
			if c.hooks != nil {
				if g := c.hooks.GateOpenAt(u.Item.GSeq, now); g > e {
					e = g
				}
			}
			if e <= now {
				return now
			}
			if e < next {
				next = e
			}
		}
		// An unissued head wakes through the issue events below.
	}

	// Fetch: resuming from a mispredict block or an I-cache stall, or
	// actually fetching. Peek is pure on every stream implementation.
	if c.branchActive {
		if c.branchResume <= now {
			return now
		}
		if c.branchResume < next {
			next = c.branchResume // notReady until the branch issues
		}
	} else if now < c.fetchStallUntil {
		if c.fetchStallUntil < next {
			next = c.fetchStallUntil
		}
	} else if c.fetchq.len() < c.fetchCap {
		if _, ok := c.stream.Peek(now); ok {
			return now
		}
	}

	// Issue: an awake candidate is probed this cycle, which can issue
	// it or grant it a channel slot — an event. Every other candidate
	// sleeps until a binding wake time; a sleep with no computable end
	// (NoEvent or sleepForever) ends only through another core's or this
	// core's issue, itself an event.
	if c.scanIdle && now < c.nextWake {
		if c.nextWake < next {
			next = c.nextWake
		}
	} else {
		for _, u := range c.cand {
			if u.wakeAt <= now {
				return now
			}
			if u.wakeAt < next {
				next = u.wakeAt
			}
		}
	}

	// Dispatch: the head either waits out the front-end pipeline, would
	// dispatch (an event), or is stalled on a structural resource whose
	// release is itself a commit or issue event already accounted above.
	if c.fetchq.len() > 0 {
		u := c.fetchq.front()
		if u.dispatchReady > now {
			if u.dispatchReady < next {
				next = u.dispatchReady
			}
		} else if v, _ := c.dispatchGate(u, c.cfg.FrontWidth); v == dispatchOK {
			return now
		}
	}
	return next
}

// SkipTo replays the bookkeeping of the dead cycles [from, to): every
// per-cycle counter the ticked Cycle sequence would have advanced, in
// bulk. The caller must have established via NextEvent that every
// cycle in the span is dead. Every candidate sleeps through the span,
// so the issue stage has nothing to replay: a ticked scan would only
// have recorded that it idles.
func (c *Core) SkipTo(from, to int64) {
	n := to - from
	c.rpt.Cycles = to

	// CPI-stack attribution. The classification is constant across a
	// dead span except for an executing head crossing its completion
	// (execute → commit-blocked); see attributeCycle for the per-cycle
	// form.
	switch {
	case c.rob.len() == 0:
		c.rpt.CyclesFetchStarved += n
	default:
		u := c.rob.front()
		switch {
		case !u.issued:
			if j := u.waitSrc; j >= 0 && u.ext[j] {
				c.rpt.CyclesChannelWait += n
			} else {
				c.rpt.CyclesIssueWait += n
			}
		default:
			split := u.completeAt
			if split < from {
				split = from
			}
			if split > to {
				split = to
			}
			c.rpt.CyclesExecute += split - from
			c.rpt.CyclesCommitBlocked += to - split
		}
	}

	// Dispatch stall accounting: one counter per cycle, same cause all
	// span (the blocking structure cannot drain on a dead cycle).
	if c.fetchq.len() > 0 {
		u := c.fetchq.front()
		if u.dispatchReady <= from {
			v, _ := c.dispatchGate(u, c.cfg.FrontWidth)
			switch v {
			case stallROB:
				c.rpt.FetchStallROB += n
			case stallLSQ:
				c.rpt.FetchStallLSQ += n
			case stallIQ:
				c.rpt.FetchStallIQ += n
			case stallCopy:
				c.rpt.FetchStallCopy += n
			}
		}
	}

	// Fetch stall accounting.
	if c.branchActive {
		c.rpt.FetchStallBranch += n
	} else if from < c.fetchStallUntil {
		c.rpt.FetchStallICache += n
	}
}

// CompletionBoundBelow reports the latest completion cycle among this
// core's in-flight uops with GSeq <= g. ok=false means some such uop
// has no fixed completion time yet (unissued, or still in the fetch
// queue) — the commit gate for g cannot open without a further event.
// The two-core coordinator uses it to compute when its collective
// commit frontier passes g.
func (c *Core) CompletionBoundBelow(g uint64) (int64, bool) {
	t := int64(-1)
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		if u.Item.GSeq > g {
			break
		}
		if !u.issued {
			return 0, false
		}
		if u.completeAt > t {
			t = u.completeAt
		}
	}
	if c.fetchq.len() > 0 && c.fetchq.front().Item.GSeq <= g {
		return 0, false
	}
	return t, true
}
