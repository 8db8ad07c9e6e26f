package checkpoint

import (
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func testTrace(t *testing.T, name string, insts uint64) *trace.Trace {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %q not found", name)
	}
	return w.Trace(insts)
}

// testGeometry is the medium preset's predictor and per-core hierarchy.
func testGeometry() (bpred.Config, mem.HierarchyConfig) {
	m := config.Medium()
	return m.Core.Predictor, m.Hier
}

func testWarmer(t *testing.T, tr *trace.Trace) *Warmer {
	t.Helper()
	pcfg, hcfg := testGeometry()
	w, err := NewWarmer(pcfg, hcfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWarmerIncrementalMatchesOneShot(t *testing.T) {
	tr := testTrace(t, "gcc", 20000)
	inc := testWarmer(t, tr)
	for _, b := range []int{3000, 7000, 12000, 18000} {
		if err := inc.AdvanceTo(b); err != nil {
			t.Fatal(err)
		}
	}
	oneShot := testWarmer(t, tr)
	if err := oneShot.AdvanceTo(18000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc.Snapshot(), oneShot.Snapshot()) {
		t.Fatal("incremental advance diverged from a single advance to the same cursor")
	}
}

// A snapshot is a deep copy: advancing the warmer past it leaves it
// as it was taken.
func TestSnapshotSurvivesAdvance(t *testing.T) {
	tr := testTrace(t, "mcf", 20000)
	w := testWarmer(t, tr)
	if err := w.AdvanceTo(5000); err != nil {
		t.Fatal(err)
	}
	snap, again := w.Snapshot(), w.Snapshot()
	if err := w.AdvanceTo(15000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, again) {
		t.Fatal("advancing the warmer mutated an earlier snapshot")
	}
	if reflect.DeepEqual(snap, w.Snapshot()) {
		t.Fatal("10,000 more instructions left the warm state unchanged")
	}
}

func TestWarmerAdvanceValidation(t *testing.T) {
	tr := testTrace(t, "mcf", 1000)
	w := testWarmer(t, tr)
	if err := w.AdvanceTo(tr.Len() + 1); err == nil {
		t.Error("advance past trace end accepted")
	}
	if err := w.AdvanceTo(500); err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(100); err == nil {
		t.Error("backward advance accepted")
	}
}

func TestNewWarmerRejectsBadGeometry(t *testing.T) {
	tr := testTrace(t, "mcf", 100)
	pcfg, hcfg := testGeometry()
	badPred := pcfg
	badPred.Kind = "warp-drive"
	if _, err := NewWarmer(badPred, hcfg, tr); err == nil {
		t.Error("invalid predictor accepted")
	}
	badHier := hcfg
	badHier.L1D.Assoc = 0
	if _, err := NewWarmer(pcfg, badHier, tr); err == nil {
		t.Error("invalid hierarchy accepted")
	}
}

func TestCaptureDedupesBoundaries(t *testing.T) {
	tr := testTrace(t, "mcf", 10000)
	pcfg, hcfg := testGeometry()
	snaps, err := Capture(pcfg, hcfg, tr, []int{2000, 2000, 6000, 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	for _, b := range []int{2000, 6000, 10000} {
		s, ok := snaps[b]
		if !ok {
			t.Fatalf("missing snapshot at %d", b)
		}
		if s.Pos != uint64(b) {
			t.Errorf("snapshot at %d has cursor %d", b, s.Pos)
		}
	}
}
