package core

import (
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
)

// Restore replicates the snapshot's hierarchy into both cores — L1s
// and counters as independent copies, the shared L2 once — and hands
// the predictor to the sequencer.
func TestMachineRestoreReplicatesL1s(t *testing.T) {
	tr := wkTrace(t, "gcc", 20_000)
	cfg := config.Medium()
	snaps, err := checkpoint.Capture(cfg.Core.Predictor, cfg.Hier, tr, []int{10_000})
	if err != nil {
		t.Fatal(err)
	}
	snap := snaps[10_000]
	m := mustMachine(t, cfg, tr.Slice(10_000, 20_000))
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.hiers[0].L2 != m.hiers[1].L2 {
		t.Fatal("the pair's hierarchies no longer share one L2")
	}
	for i, h := range m.hiers {
		if !reflect.DeepEqual(h.State(), snap.Hier) {
			t.Errorf("core %d hierarchy differs from the snapshot's", i)
		}
	}
	if !reflect.DeepEqual(m.seq.pred.State(), snap.Pred) {
		t.Error("sequencer predictor differs from the snapshot's")
	}
	// The replicas are copies: traffic on one core's L1D leaves the
	// other's as restored.
	m.hiers[0].Load(1 << 40)
	if !reflect.DeepEqual(m.hiers[1].L1D.State(), snap.Hier.L1D) {
		t.Error("core 0's L1D traffic changed core 1's")
	}
}
