package core

import (
	"repro/internal/ooo"
)

// Event-driven time advance for the two-core Fg-STP machine: the
// machine-level counterpart of internal/ooo's NextEvent/SkipTo. A
// machine cycle is dead when the sequencer cannot deliver, neither core
// can retire, issue, dispatch or fetch, and no squash is pending; the
// drain loop (ooo.Run) jumps the clock across such spans. Fault
// injection defeats the estimates (an injected channel stall can end at
// any cycle without any machine state announcing it), so a machine with
// an injector installed never skips — which keeps the watchdog drills
// exact by construction.

// NextEvent returns now when cycle now could change machine state, and
// otherwise the earliest future cycle at which anything can happen:
// sequencer resumption, or either core's next commit / wake / dispatch
// event, with cross-core commit gating resolved through the cores'
// hooks (GateOpenAt).
func (m *Machine) NextEvent(now int64) int64 {
	if m.faults != nil || m.hasSquash {
		return now
	}
	next := ooo.NoEvent

	// Sequencer, mirroring fill's check order. Delivery is an event;
	// every stall either resolves at a known cycle (I-cache) or only
	// through a core-side event (branch resolution, commit advancing the
	// window, a core draining its full queue).
	s := m.seq
	switch {
	case s.blocked:
		// Resolution comes from the blocked branch issuing on its core.
	case now < s.stallUntil:
		if s.stallUntil < next {
			next = s.stallUntil
		}
	case s.pos >= uint64(s.tr.Len()):
	case s.pos >= m.nextCommit+uint64(s.cfg.Window):
		// Opens when global commit advances — a core commit event.
	default:
		inf := s.st.info(s.pos)
		if s.streams[inf.home].len() < s.queueCap &&
			(!inf.replica || s.streams[1-inf.home].len() < s.queueCap) {
			return now
		}
	}

	for i := 0; i < 2; i++ {
		e := m.cores[i].NextEvent(now)
		if e <= now {
			return now
		}
		if e < next {
			next = e
		}
	}
	return next
}

// SkipTo replays the bookkeeping of the dead machine cycles [from, to):
// the sequencer's per-cycle stall counters and both cores' SkipTo.
func (m *Machine) SkipTo(from, to int64) {
	n := to - from
	s := m.seq
	switch {
	case s.blocked:
		s.BranchStalls += n
	case from < s.stallUntil:
		s.ICacheStalls += n
	case s.pos >= uint64(s.tr.Len()):
	case s.pos >= m.nextCommit+uint64(s.cfg.Window):
		s.WindowStalls += n
	}
	m.cores[0].SkipTo(from, to)
	m.cores[1].SkipTo(from, to)
}

// GateOpenAt implements ooo.Hooks: the earliest cycle >= now at
// which instruction g could pass CanCommit, i.e. the commit frontier
// (computed from the previous cycle's completion state) moves past g.
// That needs every instruction <= g delivered and completed on both
// cores by the cycle before — so the gate opens one cycle after the
// latest such completion. ooo.NoEvent means some older instruction is
// undelivered or unissued; the change that completes it is itself an
// event that ends the skip.
func (h *coreHooks) GateOpenAt(g uint64, now int64) int64 {
	m := h.m
	if m.seq.pos <= g {
		return ooo.NoEvent
	}
	t := int64(-1)
	for i := 0; i < 2; i++ {
		b, ok := m.cores[i].CompletionBoundBelow(g)
		if !ok {
			return ooo.NoEvent
		}
		if b > t {
			t = b
		}
	}
	if t+1 > now {
		return t + 1
	}
	return now
}
