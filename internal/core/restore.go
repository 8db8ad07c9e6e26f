package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/trace"
)

// WarmState bundles the machine-resident warm state a checkpoint
// restores into an Fg-STP pair: the global sequencer's branch predictor
// tables, both cores' private L1 arrays, the shared L2 (one cache, both
// hierarchies alias it), the per-hierarchy traffic counters, and the
// machine-level cross-core dependence predictor. The per-core local
// dependence predictors start cold — they are violation-trained and
// checkpoints are taken at quiescent points with no violations pending.
type WarmState struct {
	SeqPred *bpred.State
	L1I     [2]mem.CacheState
	L1D     [2]mem.CacheState
	L2      mem.CacheState
	// Prefetches and DRAMAccesses are the hierarchy-level counters, per
	// core.
	Prefetches   [2]uint64
	DRAMAccesses [2]uint64
	Dep          *ooo.DepPredState
}

// Warm returns a deep copy of the machine's warm state (see WarmState).
func (m *Machine) Warm() *WarmState {
	w := &WarmState{
		SeqPred: m.seq.pred.State(),
		L2:      m.hiers[0].L2.State(),
	}
	for i := 0; i < 2; i++ {
		w.L1I[i] = m.hiers[i].L1I.State()
		w.L1D[i] = m.hiers[i].L1D.State()
		w.Prefetches[i] = m.hiers[i].Prefetches
		w.DRAMAccesses[i] = m.hiers[i].DRAMAccesses
	}
	d := m.depPred.State()
	w.Dep = &d
	return w
}

// Restore applies a warm-state snapshot to a freshly built machine;
// call it before the first Cycle. Nil predictor fields leave those
// components cold. It reports an error when the snapshot does not match
// the machine's configuration.
func (m *Machine) Restore(warm *WarmState) error {
	if warm == nil {
		return nil
	}
	if warm.SeqPred != nil {
		if err := m.seq.pred.SetState(warm.SeqPred); err != nil {
			return fmt.Errorf("fgstp sequencer: %w", err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := m.hiers[i].L1I.SetState(&warm.L1I[i]); err != nil {
			return fmt.Errorf("fgstp core %d: %w", i, err)
		}
		if err := m.hiers[i].L1D.SetState(&warm.L1D[i]); err != nil {
			return fmt.Errorf("fgstp core %d: %w", i, err)
		}
		m.hiers[i].Prefetches = warm.Prefetches[i]
		m.hiers[i].DRAMAccesses = warm.DRAMAccesses[i]
	}
	// The L2 is shared: both hierarchies alias one cache, restore once.
	if err := m.hiers[0].L2.SetState(&warm.L2); err != nil {
		return fmt.Errorf("fgstp shared L2: %w", err)
	}
	if warm.Dep != nil {
		if err := m.depPred.SetState(warm.Dep); err != nil {
			return fmt.Errorf("fgstp dep predictor: %w", err)
		}
	}
	return nil
}

// NewMachineAt assembles an Fg-STP system constructed *at* a
// checkpoint: a fresh pipeline (empty queues, reset sequencer) whose
// predictor and cache arrays start warm. Checkpoints are taken at
// quiescent points, so warm tables plus the trace cursor are the
// complete state.
func NewMachineAt(cfg config.Machine, tr *trace.Trace, warm *WarmState) (*Machine, error) {
	m, err := NewMachine(cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := m.Restore(warm); err != nil {
		return nil, err
	}
	return m, nil
}

// DrainMeasured drains the machine like Drain while recording the cycle
// at which the global commit pointer first passed warmInsts — the
// boundary between a sampled slice's warmup region and its measured
// region. It returns the total cycle count and that boundary cycle
// (equal to total when warmInsts covers the whole trace).
func (m *Machine) DrainMeasured(warmInsts uint64) (total, warmEnd int64, err error) {
	return m.drain(true, warmInsts)
}
