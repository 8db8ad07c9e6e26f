package checkpoint

import (
	"reflect"
	"testing"

	"repro/internal/config"
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

func testMachine(t *testing.T) config.Machine {
	t.Helper()
	m, err := config.ByName("medium")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func warmSnapshot(t *testing.T, mode string, n int) *Snapshot {
	t.Helper()
	tr := testTrace(t, "mcf", 20000)
	w, err := NewWarmer(testMachine(t), mode, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AdvanceTo(n); err != nil {
		t.Fatal(err)
	}
	return w.Snapshot()
}

func TestWarmerIncrementalMatchesOneShot(t *testing.T) {
	tr := testTrace(t, "gcc", 20000)
	m := testMachine(t)

	inc, err := NewWarmer(m, ModeSingle, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{3000, 7000, 12000, 18000} {
		if err := inc.AdvanceTo(b); err != nil {
			t.Fatal(err)
		}
	}
	oneShot, err := NewWarmer(m, ModeSingle, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := oneShot.AdvanceTo(18000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc.Snapshot(), oneShot.Snapshot()) {
		t.Fatal("incremental advance diverged from a single advance to the same cursor")
	}
}

func TestWarmerAdvanceValidation(t *testing.T) {
	tr := testTrace(t, "mcf", 1000)
	w, err := NewWarmer(testMachine(t), ModeSingle, tr)
	if err != nil {
		t.Fatal(err)
	}
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

func TestNewWarmerRejectsUnknownMode(t *testing.T) {
	tr := testTrace(t, "mcf", 100)
	if _, err := NewWarmer(testMachine(t), "warp-drive", tr); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestSnapshotLayouts(t *testing.T) {
	single := warmSnapshot(t, ModeSingle, 5000)
	if len(single.Caches) != 3 || len(single.Hiers) != 1 {
		t.Fatalf("single layout: %d caches/%d hiers", len(single.Caches), len(single.Hiers))
	}
	if _, err := single.HierarchyState(); err != nil {
		t.Errorf("single HierarchyState: %v", err)
	}
	if _, err := single.MachineWarm(); err == nil {
		t.Error("single snapshot converted for the fgstp pair")
	}

	pair := warmSnapshot(t, ModeFgSTP, 5000)
	if len(pair.Caches) != 5 || len(pair.Hiers) != 2 {
		t.Fatalf("fgstp layout: %d caches/%d hiers", len(pair.Caches), len(pair.Hiers))
	}
	if _, err := pair.MachineWarm(); err != nil {
		t.Errorf("fgstp MachineWarm: %v", err)
	}
	if _, err := pair.HierarchyState(); err == nil {
		t.Error("fgstp snapshot converted for a private hierarchy")
	}

	// Replicated L1 state must not alias the original arrays.
	pair.Caches[0].Tags[0] ^= 0xDEAD
	if pair.Caches[2].Tags[0] == pair.Caches[0].Tags[0] {
		t.Error("replicated L1I aliases the warmed array")
	}
}

func TestCaptureDedupesBoundaries(t *testing.T) {
	tr := testTrace(t, "mcf", 10000)
	snaps, err := Capture(testMachine(t), ModeSingle, tr, []int{2000, 2000, 6000, 10000})
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
