package core

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Restore starts a freshly built machine warm from a checkpoint; call
// it before the first Cycle. The global sequencer takes the predictor.
// The snapshot's single hierarchy plays the pair's shared front end:
// its L1 arrays and traffic counters go into both cores' private
// hierarchies (the steering interleaves the working set across both;
// the detailed warmup region corrects the residue), and the shared L2,
// which both hierarchies alias, is restored once. The dependence
// predictors stay cold: they are violation-trained, which a functional
// pass cannot observe.
func (m *Machine) Restore(snap *checkpoint.Snapshot) error {
	if err := m.seq.pred.SetState(snap.Pred); err != nil {
		return fmt.Errorf("fgstp sequencer: %w", err)
	}
	hs := &snap.Hier
	for i, h := range m.hiers {
		if err := h.L1I.SetState(&hs.L1I); err != nil {
			return fmt.Errorf("fgstp core %d: %w", i, err)
		}
		if err := h.L1D.SetState(&hs.L1D); err != nil {
			return fmt.Errorf("fgstp core %d: %w", i, err)
		}
		h.Prefetches = hs.Prefetches
		h.DRAMAccesses = hs.DRAMAccesses
	}
	if err := m.hiers[0].L2.SetState(&hs.L2); err != nil {
		return fmt.Errorf("fgstp shared L2: %w", err)
	}
	return nil
}
