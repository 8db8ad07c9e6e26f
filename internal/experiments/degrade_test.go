package experiments

import (
	"strings"
	"testing"

	"repro/internal/workloads"
)

// A poisoned workload degrades gracefully: its cells render
// FAIL(livelock), the other workloads' rows still carry numbers, the
// geomean-exclusion note appears, and the output is byte-identical
// across worker counts.
func TestPoisonedSessionDegrades(t *testing.T) {
	render := func(jobs int) string {
		s := NewSession(3000, jobs)
		s.Poison("gobmk")
		res, err := evaluate(s, "E8")
		if err != nil {
			t.Fatalf("jobs=%d: poisoned experiment aborted: %v", jobs, err)
		}
		if !res.Failed() {
			t.Fatalf("jobs=%d: poisoned session reported no failures", jobs)
		}
		if len(res.Failures) != 1 || !strings.HasPrefix(res.Failures[0], "gobmk:") {
			t.Errorf("jobs=%d: failures %v, want exactly one for gobmk", jobs, res.Failures)
		}
		return res.String()
	}
	out1 := render(1)
	out4 := render(4)
	if out1 != out4 {
		t.Errorf("degraded output differs between -jobs 1 and -jobs 4:\n%s\n----\n%s", out1, out4)
	}
	if !strings.Contains(out1, "FAIL(livelock)") {
		t.Error("poisoned cell does not render FAIL(livelock)")
	}
	if !strings.Contains(out1, "DEGRADED: excluded 1 of") {
		t.Error("missing geomean-exclusion note")
	}
	if !strings.Contains(out1, "livelock at cycle") {
		t.Error("missing watchdog forensics in FAIL line")
	}
	// Sibling workloads must still have numeric rows.
	for _, sibling := range []string{"mcf", "soplex"} {
		found := false
		for _, line := range strings.Split(out1, "\n") {
			if strings.Contains(line, sibling) && !strings.Contains(line, "FAIL") {
				found = true
			}
		}
		if !found {
			t.Errorf("sibling workload %s has no successful row", sibling)
		}
	}
}

// Without poison the same session must be clean.
func TestUnpoisonedSessionClean(t *testing.T) {
	res, err := evaluate(NewSession(3000, 0), "E8")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Errorf("clean session reported failures: %v", res.Failures)
	}
	if strings.Contains(res.String(), "FAIL") {
		t.Error("clean output contains FAIL cells")
	}
}

// The speedup figure (grid of all three modes) must also degrade
// per-cell: only the poisoned workload's fgstp cell fails, baselines
// stay numeric.
func TestPoisonedGridFigure(t *testing.T) {
	s := NewSession(2000, 0)
	s.Poison("gobmk")
	res, err := evaluate(s, "E2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures %v, want exactly the poisoned fgstp cell", res.Failures)
	}
	if !strings.Contains(res.Failures[0], "gobmk/fgstp") {
		t.Errorf("failure %q is not the poisoned fgstp cell", res.Failures[0])
	}
	var gobmkRow string
	for _, line := range strings.Split(res.String(), "\n") {
		if strings.Contains(line, "gobmk") {
			gobmkRow = line
		}
	}
	if !strings.Contains(gobmkRow, "FAIL(livelock)") {
		t.Errorf("poisoned row %q lacks FAIL(livelock)", gobmkRow)
	}
	if strings.Count(gobmkRow, "FAIL") != 1 {
		t.Errorf("poisoned row %q should fail only in fgstp mode", gobmkRow)
	}
}

// E11 degrades like the paper experiments: the poisoned workload's
// failed Fg-STP cell becomes a FAIL line and leaves the geomeans, the
// output is byte-identical across worker counts, and the plan holds
// every clean E11 cell.
func TestPoisonedE11Degrades(t *testing.T) {
	const insts = 2000
	render := func(jobs int) string {
		s := NewSession(insts, jobs)
		s.Poison("gobmk")
		res, err := evaluate(s, "E11")
		if err != nil {
			t.Fatalf("jobs=%d: poisoned E11 aborted: %v", jobs, err)
		}
		if len(res.Failures) != 1 || !strings.HasPrefix(res.Failures[0], "medium/gobmk/fgstp:") {
			t.Errorf("jobs=%d: failures %v, want exactly the poisoned fgstp cell", jobs, res.Failures)
		}
		if r := res.Metrics["fgstp_energy_ratio"]; r <= 1.0 {
			t.Errorf("jobs=%d: fgstp energy ratio %.3f over the clean workloads, want > 1", jobs, r)
		}
		return res.String()
	}
	out1, out4 := render(1), render(4)
	if out1 != out4 {
		t.Errorf("degraded E11 differs between -jobs 1 and -jobs 4:\n%s\n----\n%s", out1, out4)
	}
	for _, want := range []string{"FAIL medium/gobmk/fgstp: ", "livelock at cycle", "DEGRADED: excluded 1 of 87"} {
		if !strings.Contains(out1, want) {
			t.Errorf("degraded E11 lacks %q:\n%s", want, out1)
		}
	}
	cells, err := planner(insts, "gobmk").cellsOf([]string{"E11"})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*len(workloads.All()) - 1; len(cells) != want {
		t.Errorf("poisoned E11 planned %d cells, want every clean one (%d)", len(cells), want)
	}
}
