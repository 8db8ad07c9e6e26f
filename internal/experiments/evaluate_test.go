package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// evaluateInsts keeps the byte-identity test's eight full evaluations
// affordable under -race.
const evaluateInsts = 500

// renderAll renders results in every format.
func renderAll(t *testing.T, results []*Result) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, f := range Formats() {
		var buf bytes.Buffer
		if err := WriteFormat(&buf, f, evaluateInsts, results); err != nil {
			t.Fatal(err)
		}
		out[f] = buf.Bytes()
	}
	return out
}

// TestEvaluateMatchesPerIDRuns: Evaluate's plan/execute/render
// documents are byte-identical to running IDs() one RunCtx at a time on
// one session, in every format at 1, 2 and 4 workers — clean, and with
// a poisoned workload whose Fg-STP cells are never planned and fail
// when their experiments render.
func TestEvaluateMatchesPerIDRuns(t *testing.T) {
	ctx := context.Background()
	for _, poison := range []string{"", "gobmk"} {
		t.Run("poison="+poison, func(t *testing.T) {
			t.Parallel()
			ref := NewSession(evaluateInsts, 0)
			ref.Poison(poison)
			var results []*Result
			for _, id := range IDs() {
				res, err := ref.RunCtx(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
			}
			if failed := results[1].Failed(); failed != (poison != "") {
				t.Fatalf("E2 failed = %v", failed)
			}
			want := renderAll(t, results)
			for _, jobs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
					t.Parallel()
					s := NewSession(evaluateInsts, jobs)
					s.Poison(poison)
					ev, err := s.Evaluate(ctx, IDs())
					if err != nil {
						t.Fatal(err)
					}
					for f, doc := range renderAll(t, ev.Results) {
						if !bytes.Equal(doc, want[f]) {
							t.Errorf("%s document differs from the per-id runs", f)
						}
					}
				})
			}
		})
	}
}

// TestEvaluateResidency counts a clean evaluation through a recording
// cell runner: each workload's trace is captured once, each planned
// cell reaches the runner once and nothing else does (the plan missed
// no cell, so rendering is all memo hits), at most one trace per worker
// is resident at any cell, and none is left once it returns.
func TestEvaluateResidency(t *testing.T) {
	plan, err := planner(evaluateInsts, "").cellsOf(IDs())
	if err != nil {
		t.Fatal(err)
	}
	planned := map[string]bool{}
	for _, c := range plan {
		planned[memoKey(c.Machine, c.Mode, c.Workload)] = true
	}
	if len(planned) != 783 || len(plan) != 783 {
		t.Fatalf("plan has %d cells (%d distinct), want 783", len(plan), len(planned))
	}
	for _, jobs := range []int{1, 2, 4} {
		s := NewSession(evaluateInsts, jobs)
		var mu sync.Mutex
		seen := map[string]int{}
		captured := map[string]map[*trace.Trace]bool{}
		resident := 0
		s.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
			key := memoKey(m, mode, w.Name)
			mu.Lock()
			defer mu.Unlock()
			seen[key]++
			if captured[w.Name] == nil {
				captured[w.Name] = map[*trace.Trace]bool{}
			}
			captured[w.Name][tr] = true
			resident = max(resident, s.r.traces.Len())
			run := stats.Run{Workload: w.Name, Mode: string(mode), Cycles: 1, Insts: 1}
			run.Set("active_cores", 1)
			return run, nil
		})
		ev, err := s.Evaluate(context.Background(), IDs())
		if err != nil {
			t.Fatal(err)
		}
		if ev.Tasks != len(plan) {
			t.Errorf("jobs %d: pool ran %d cells, plan has %d", jobs, ev.Tasks, len(plan))
		}
		for key, n := range seen {
			if n != 1 || !planned[key] {
				t.Errorf("jobs %d: cell %s reached the runner %d times, planned %v", jobs, key, n, planned[key])
			}
		}
		if len(seen) != len(plan) {
			t.Errorf("jobs %d: runner saw %d cells, plan has %d", jobs, len(seen), len(plan))
		}
		if len(captured) != len(workloads.All()) {
			t.Errorf("jobs %d: traces of %d workloads, want %d", jobs, len(captured), len(workloads.All()))
		}
		for name, trs := range captured {
			if len(trs) != 1 {
				t.Errorf("jobs %d: %s captured %d times", jobs, name, len(trs))
			}
		}
		if resident > jobs || ev.PeakTraces > jobs {
			t.Errorf("jobs %d: %d traces resident at a cell, peak %d, want at most %d", jobs, resident, ev.PeakTraces, jobs)
		}
		if n := s.r.traces.Len(); n != 0 {
			t.Errorf("jobs %d: %d traces still resident after the evaluation", jobs, n)
		}
	}
}

// TestPlanCapturesNoTrace: planning every experiment, extensions
// included, on a poisoned planner records cells without capturing a
// single trace, and never plans a poisoned Fg-STP cell.
func TestPlanCapturesNoTrace(t *testing.T) {
	const poison = "gobmk"
	p := planner(evaluateInsts, poison)
	cells, err := p.cellsOf(AllIDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("nothing planned")
	}
	for _, c := range cells {
		if c.Mode == cmp.ModeFgSTP && c.Workload == poison {
			t.Fatalf("poisoned cell planned on %s", c.Machine.Name)
		}
	}
	if n := p.traces.Peak(); n != 0 {
		t.Fatalf("planning captured %d traces", n)
	}
	if _, err := p.cellsOf([]string{"E13"}); err == nil {
		t.Fatal("planning an unknown experiment succeeded")
	}
}

// memoKey is the session memo's key of a cell; a config that does not
// encode yields a key no plan holds.
func memoKey(m config.Machine, mode cmp.Mode, workload string) string {
	cfg, err := CellConfig(m, mode)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(mode) + "/" + workload + "/" + string(cfg)
}
