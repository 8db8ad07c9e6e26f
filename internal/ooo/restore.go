package ooo

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/mem"
)

// DepPredState is a deep snapshot of the memory-dependence predictor's
// warm state: the load-wait table plus the operation counter that
// schedules the periodic clear. Conservative and perfect predictors
// carry an empty table (they are stateless). Mode flags are NOT part of
// the state — a DepPredState only restores into a predictor built with
// the same bits argument (SetState validates the table size).
type DepPredState struct {
	Table   []uint8
	Ops     uint64
	ClearAt uint64
}

// State returns a deep copy of the predictor's current state.
func (p *DepPred) State() DepPredState {
	return DepPredState{
		Table:   append([]uint8(nil), p.table...),
		Ops:     p.ops,
		ClearAt: p.clearAt,
	}
}

// SetState restores a snapshot taken from a predictor with the same
// sizing; it reports an error on a table-size mismatch.
func (p *DepPred) SetState(s *DepPredState) error {
	if len(s.Table) != len(p.table) {
		return fmt.Errorf("deppred: table size mismatch (%d vs %d)",
			len(s.Table), len(p.table))
	}
	copy(p.table, s.Table)
	p.ops = s.Ops
	p.clearAt = s.ClearAt
	return nil
}

// WarmState bundles the core-resident warm state a checkpoint restores:
// the branch predictor tables (nil for external-frontend cores, whose
// predictor lives in the global sequencer) and the memory-dependence
// predictor bits. Cache state restores through the hierarchy
// (mem.HierarchyState), which the core only references.
type WarmState struct {
	Pred *bpred.State
	Dep  *DepPredState
}

// Warm returns a deep copy of the core's warm state (see WarmState).
func (c *Core) Warm() *WarmState {
	w := &WarmState{}
	if c.pred != nil {
		w.Pred = c.pred.State()
	}
	d := c.dep.State()
	w.Dep = &d
	return w
}

// Restore applies a warm-state snapshot to a freshly built core; call
// it before the first Cycle. A nil field leaves that component cold. It
// reports an error when the snapshot does not match the core's
// configuration (wrong predictor geometry, predictor state offered to
// an external-frontend core).
func (c *Core) Restore(warm *WarmState) error {
	if warm == nil {
		return nil
	}
	if warm.Pred != nil {
		if c.pred == nil {
			return fmt.Errorf("core %s: predictor state offered to an external-frontend core", c.cfg.Name)
		}
		if err := c.pred.SetState(warm.Pred); err != nil {
			return fmt.Errorf("core %s: %w", c.cfg.Name, err)
		}
	}
	if warm.Dep != nil {
		if err := c.dep.SetState(warm.Dep); err != nil {
			return fmt.Errorf("core %s: %w", c.cfg.Name, err)
		}
	}
	return nil
}

// NewCoreAt builds a core constructed *at* a checkpoint: a fresh
// pipeline (empty windows, reset cursors) whose predictor and
// dependence-predictor tables start warm. The hierarchy is passed in
// already restored (mem.HierarchyState); checkpoints are taken at
// quiescent points, so warm tables plus a stream cursor are the
// complete state.
func NewCoreAt(cfg Config, hier *mem.Hierarchy, stream Stream, hooks Hooks, warm *WarmState) (*Core, error) {
	c, err := NewCore(cfg, hier, stream, hooks)
	if err != nil {
		return nil, err
	}
	if err := c.Restore(warm); err != nil {
		return nil, err
	}
	return c, nil
}

// DrainMeasured drains the core like Drain while recording the cycle at
// which the first warmInsts instructions had all committed — the
// boundary between a sampled slice's warmup region and its measured
// region. It returns the total cycle count and that boundary cycle
// (equal to total when warmInsts covers the whole stream).
func DrainMeasured(core *Core, traceLen int, warmInsts uint64) (total, warmEnd int64, err error) {
	limit := int64(traceLen+1000) * maxCyclesPerInst
	var now, lastProgress int64
	warmEnd = -1
	lastCommitted := core.Committed()
	if lastCommitted >= warmInsts {
		warmEnd = 0
	}
	for !core.Done() {
		if c := core.Committed(); c != lastCommitted {
			lastCommitted, lastProgress = c, now
		}
		if now-lastProgress > LivelockWindow || now > limit {
			return now, now, &LivelockError{
				Core:        core.Config().Name,
				Cycles:      now,
				SinceCommit: now - lastProgress,
				Committed:   lastCommitted,
				TraceLen:    traceLen,
				InFlight:    core.InFlight(),
			}
		}
		if next := core.NextEvent(now, nil); next > now {
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
		core.Cycle(now)
		now++
		if warmEnd < 0 && core.Committed() >= warmInsts {
			warmEnd = now
		}
	}
	if warmEnd < 0 {
		warmEnd = now
	}
	return now, warmEnd, nil
}
