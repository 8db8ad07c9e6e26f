package cmp

import (
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestParseMode(t *testing.T) {
	for _, ok := range []string{"single", "corefusion", "fgstp"} {
		if _, err := ParseMode(ok); err != nil {
			t.Errorf("ParseMode(%q): %v", ok, err)
		}
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Error("bogus mode accepted")
	}
	if len(Modes()) != 3 {
		t.Errorf("Modes() = %v", Modes())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	m := config.Medium()
	if _, err := Run(m, ModeSingle, &trace.Trace{Name: "empty"}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := config.Medium()
	bad.Core.ROBSize = 0
	w, _ := workloads.ByName("mcf")
	if _, err := Run(bad, ModeSingle, w.Trace(100)); err == nil {
		t.Error("invalid machine accepted")
	}
	if _, err := Run(m, Mode("bogus"), w.Trace(100)); err == nil {
		t.Error("bogus mode accepted by Run")
	}
}

// A workload's captured trace runs to its full instruction budget and
// is labelled with the workload's name.
func TestRunWorkload(t *testing.T) {
	w, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("workload gcc missing")
	}
	r, err := Run(config.Small(), ModeSingle, w.Trace(5_000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts != 5_000 {
		t.Errorf("insts = %d", r.Insts)
	}
	if r.Workload != "gcc" {
		t.Errorf("run labelled %q", r.Workload)
	}
}

// The architectural contract across modes: all three commit exactly the
// same instruction stream.
func TestAllModesCommitSameStream(t *testing.T) {
	m := config.Medium()
	for _, name := range []string{"perlbench", "lbm", "sjeng"} {
		w, _ := workloads.ByName(name)
		tr := w.Trace(8_000)
		runs, err := RunAll(m, tr)
		if err != nil {
			t.Fatal(err)
		}
		for mode, r := range runs {
			if r.Insts != uint64(tr.Len()) {
				t.Errorf("%s/%s: committed %d of %d", name, mode, r.Insts, tr.Len())
			}
			if r.Mode != string(mode) {
				t.Errorf("%s: run labelled %q", mode, r.Mode)
			}
		}
	}
}

// Reproduction anchor (miniature of E2/E3): on both machine sizes,
// Fg-STP must beat the single core and Core Fusion in geomean over the
// suite, and the medium Fg-STP-vs-fusion gap must be at least as large
// as the small one — the paper's headline shape.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep in -short mode")
	}
	gap := make(map[string]float64)
	for _, m := range []config.Machine{config.Small(), config.Medium()} {
		var vsSingle, vsFusion []float64
		for _, w := range workloads.All() {
			tr := w.Trace(15_000)
			runs, err := RunAll(m, tr)
			if err != nil {
				t.Fatal(err)
			}
			s, f, g := runs[ModeSingle], runs[ModeFusion], runs[ModeFgSTP]
			vsSingle = append(vsSingle, stats.Speedup(&s, &g))
			vsFusion = append(vsFusion, stats.Speedup(&f, &g))
		}
		gmS, gmF := stats.Geomean(vsSingle), stats.Geomean(vsFusion)
		t.Logf("%s: fgstp/single=%.3f fgstp/fusion=%.3f", m.Name, gmS, gmF)
		if gmS <= 1.05 {
			t.Errorf("%s: fgstp/single geomean %.3f, want > 1.05", m.Name, gmS)
		}
		if gmF <= 1.0 {
			t.Errorf("%s: fgstp/fusion geomean %.3f, want > 1", m.Name, gmF)
		}
		gap[m.Name] = gmF
	}
}

// Single-core runs must be independent of the Fg-STP fabric parameters
// (guards the experiment harness's baseline caching).
func TestSingleModeIgnoresFabric(t *testing.T) {
	w, _ := workloads.ByName("astar")
	tr := w.Trace(6_000)
	a := config.Medium()
	b := config.Medium()
	b.FgSTP.CommLatency = 16
	b.FgSTP.Steering = "roundrobin"
	ra, err := Run(a, ModeSingle, tr)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b, ModeSingle, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cycles != rb.Cycles {
		t.Errorf("single-core cycles differ with fabric config: %d vs %d", ra.Cycles, rb.Cycles)
	}
}

// TestRunModesOrdering checks that RunAll runs every mode of Modes()
// and keys each result by the mode that produced it: iterating Modes()
// in comparison order over the map must give exactly the per-mode Run
// results — the ordered path callers of RunAll use for output.
func TestRunModesOrdering(t *testing.T) {
	w, _ := workloads.ByName("astar")
	tr := w.Trace(2_000)
	m := config.Small()
	all, err := RunAll(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Modes()) {
		t.Fatalf("RunAll returned %d results", len(all))
	}
	for _, mode := range Modes() {
		got, ok := all[mode]
		if !ok {
			t.Fatalf("RunAll missing mode %s", mode)
		}
		if got.Mode != string(mode) {
			t.Errorf("all[%s].Mode = %q", mode, got.Mode)
		}
		want, err := Run(m, mode, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Insts != want.Insts {
			t.Errorf("mode %s: RunAll (%d cyc) != Run (%d cyc)", mode, got.Cycles, want.Cycles)
		}
	}
}
