package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/hotblock"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestCellsE2 pins the enumeration of the headline figure: every
// workload in every mode on the medium machine, in deterministic
// submission order, each exactly once (the session memo dedupes
// nothing here — E2 runs each (mode, workload) pair once).
func TestCellsE2(t *testing.T) {
	cells, err := Cells("E2", 3000)
	if err != nil {
		t.Fatal(err)
	}
	w := len(workloads.All())
	if got, want := len(cells), 3*w; got != want {
		t.Fatalf("E2 enumerates %d cells, want %d (3 modes × %d workloads)", got, want, w)
	}
	counts := map[cmp.Mode]int{}
	for _, c := range cells {
		counts[c.Mode]++
		if c.Machine.Name != "medium" {
			t.Fatalf("E2 cell on machine %q, want medium", c.Machine.Name)
		}
	}
	for _, m := range cmp.Modes() {
		if counts[m] != w {
			t.Fatalf("E2 has %d %s cells, want %d", counts[m], m, w)
		}
	}
	again, err := Cells("E2", 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Fatal("Cells(E2) is not deterministic across calls")
	}
}

// TestCellsE4Dedupe pins the memo interaction: E4's five
// fabric variants share one single-core baseline per workload (the
// variants mutate only the Fg-STP section), so the enumeration carries
// W single cells and 5W Fg-STP cells.
func TestCellsE4Dedupe(t *testing.T) {
	cells, err := Cells("E4", 2000)
	if err != nil {
		t.Fatal(err)
	}
	w := len(workloads.All())
	counts := map[cmp.Mode]int{}
	for _, c := range cells {
		counts[c.Mode]++
	}
	if counts[cmp.ModeSingle] != w {
		t.Errorf("E4 has %d single cells, want %d (variants share the baseline)", counts[cmp.ModeSingle], w)
	}
	if counts[cmp.ModeFgSTP] != 5*w {
		t.Errorf("E4 has %d fgstp cells, want %d (5 variants × %d workloads)", counts[cmp.ModeFgSTP], 5*w, w)
	}
	if counts[cmp.ModeFusion] != 0 {
		t.Errorf("E4 has %d fusion cells, want 0", counts[cmp.ModeFusion])
	}
}

// TestCellsE12Errors pins the one non-decomposable experiment: E12's
// simulations run inside internal/adaptive, not through cmp cells.
func TestCellsE12Errors(t *testing.T) {
	if _, err := Cells("E12", 2000); err == nil {
		t.Fatal("Cells(E12) succeeded, want an error")
	}
}

// TestCellRunnerByteIdentity is the interception contract: a
// pass-through cell runner must observe exactly the enumerated cells
// and must not perturb the rendered document by a byte.
func TestCellRunnerByteIdentity(t *testing.T) {
	const insts = 3000
	render := func(s *Session) []byte {
		t.Helper()
		res, err := s.Run("E2")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFormat(&buf, "json", insts, []*Result{res}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(NewSession(insts, 0))

	var calls atomic.Int64
	s := NewSession(insts, 0)
	s.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
		calls.Add(1)
		return cmp.Run(m, mode, tr)
	})
	got := render(s)
	if !bytes.Equal(want, got) {
		t.Fatal("pass-through cell runner changed the rendered document")
	}
	cells, err := Cells("E2", insts)
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != len(cells) {
		t.Fatalf("runner saw %d cells, enumeration says %d", calls.Load(), len(cells))
	}
}

// TestSessionHotBlockTelemetry: a session-level telemetry sink
// aggregates the hot-block counters of every directly simulated cell —
// nonzero single and corefusion replays at a budget where the
// loop-heavy workloads arm — without perturbing the rendered document
// by a byte.
func TestSessionHotBlockTelemetry(t *testing.T) {
	const insts = 20_000
	render := func(s *Session) []byte {
		t.Helper()
		res, err := s.Run("E2")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFormat(&buf, "json", insts, []*Result{res}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(NewSession(insts, 0))
	var hb hotblock.Counters
	s := NewSession(insts, 0)
	s.SetHotBlock(&hb)
	got := render(s)
	if !bytes.Equal(want, got) {
		t.Fatal("telemetry sink changed the rendered document")
	}
	if hb.Templates == 0 || hb.Replays == 0 || hb.ReplayedInsts == 0 {
		t.Errorf("session telemetry missing replays: %+v", hb)
	}
}

// TestPoisonBypassesCellRunner pins the degraded-run exclusion: a
// poisoned workload's Fg-STP cells go straight to the engine, never
// through the (memoising) cell runner.
func TestPoisonBypassesCellRunner(t *testing.T) {
	poisoned := workloads.All()[0].Name
	s := NewSession(2000, 0)
	s.Poison(poisoned)
	s.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
		if mode == cmp.ModeFgSTP && w.Name == poisoned {
			t.Errorf("poisoned fgstp cell %s reached the cell runner", w.Name)
		}
		return cmp.Run(m, mode, tr)
	})
	if _, err := s.Run("E2"); err != nil {
		t.Fatal(err)
	}
}

// TestMemoKeysByContent is the regression test for name-keyed
// baselines: two machines that share a Name but differ in Core must get
// distinct single-core results in one session, each equal to a direct
// engine run.
func TestMemoKeysByContent(t *testing.T) {
	const insts = 2000
	w := workloads.All()[0]
	tr := w.Trace(insts)
	resized := config.Small()
	resized.Name = config.Medium().Name
	s := NewSession(insts, 1)
	for _, m := range []config.Machine{config.Medium(), resized} {
		got, err := s.r.runOf(m, cmp.ModeSingle, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cmp.Run(m, cmp.ModeSingle, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s core (ROB %d): session served cycles=%d, engine gives %d",
				m.Name, m.Core.ROBSize, got.Cycles, want.Cycles)
		}
	}
	if n := s.r.memo.Len(); n != 2 {
		t.Fatalf("memo holds %d cells, want 2", n)
	}
}

// TestSessionCellsDistinct runs the paper set in one session under a
// recording cell runner: the memo sits above the runner, so it sees
// each distinct (mode, workload, canonical config) cell exactly once —
// 58 single, 58 Core Fusion and 667 Fg-STP cells, where the experiments
// ask for 1073.
func TestSessionCellsDistinct(t *testing.T) {
	s := NewSession(500, 0)
	var mu sync.Mutex
	seen := map[string]bool{}
	counts := map[cmp.Mode]int{}
	s.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, _ *trace.Trace) (stats.Run, error) {
		cfg, err := CellConfig(m, mode)
		if err != nil {
			return stats.Run{}, err
		}
		key := string(mode) + "/" + w.Name + "/" + string(cfg)
		mu.Lock()
		defer mu.Unlock()
		if seen[key] {
			t.Errorf("cell %s/%s on %s reached the runner twice", mode, w.Name, m.Name)
		}
		seen[key] = true
		counts[mode]++
		run := stats.Run{Workload: w.Name, Mode: string(mode), Cycles: 1, Insts: 1}
		run.Set("active_cores", 1)
		return run, nil
	})
	for _, id := range IDs() {
		if _, err := s.Run(id); err != nil {
			t.Fatal(err)
		}
	}
	want := map[cmp.Mode]int{cmp.ModeSingle: 58, cmp.ModeFusion: 58, cmp.ModeFgSTP: 667}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("runner saw %v cells, want %v", counts, want)
	}
}

// TestMemoRetriesFailedCells: a failed cell is not memoised, so the
// next experiment that asks for it runs it again.
func TestMemoRetriesFailedCells(t *testing.T) {
	failing := workloads.All()[0].Name
	var calls, failures atomic.Int64
	s := NewSession(2000, 0)
	s.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
		calls.Add(1)
		if mode == cmp.ModeSingle && w.Name == failing && failures.Add(1) == 1 {
			return stats.Run{}, errors.New("transient")
		}
		return cmp.Run(m, mode, tr)
	})
	first, err := s.Run("E2")
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Failures) != 1 {
		t.Fatalf("first E2 failures = %v, want the one injected", first.Failures)
	}
	before := calls.Load()
	second, err := s.Run("E2")
	if err != nil {
		t.Fatal(err)
	}
	if second.Failed() {
		t.Fatalf("second E2 failures = %v, want none", second.Failures)
	}
	if got := calls.Load() - before; got != 1 {
		t.Fatalf("second E2 reached the runner %d times, want 1 (only the failed cell)", got)
	}
}

// TestAllIDs pins the hoisted id universe used by request validation.
func TestAllIDs(t *testing.T) {
	all := AllIDs()
	if want := append(IDs(), ExtensionIDs()...); !reflect.DeepEqual(all, want) {
		t.Fatalf("AllIDs() = %v, want %v", all, want)
	}
	// The returned slice is a copy: mutating it must not poison the set.
	all[0] = "corrupted"
	if AllIDs()[0] == "corrupted" {
		t.Fatal("AllIDs() exposes its backing array")
	}
	for _, id := range AllIDs() {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false for a listed id", id)
		}
	}
	for _, id := range []string{"", "all", "all+ext", "E0", "E13", "e2"} {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true, want false", id)
		}
	}
}
