package adaptive

import (
	"reflect"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func testTrace(t *testing.T, name string, n uint64) *trace.Trace {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s", name)
	}
	return w.Trace(n)
}

func TestConfigValidate(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.PhaseInsts = 10
	if err := c.Validate(); err == nil {
		t.Error("tiny phase accepted")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	m := config.Medium()
	if _, err := Run(m, &trace.Trace{}, DefaultConfig(), PolicyOracle); err == nil {
		t.Error("empty trace accepted")
	}
	tr := testTrace(t, "hmmer", 2_000)
	if _, err := Run(m, tr, DefaultConfig(), Policy("warp")); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestPhaseAccounting(t *testing.T) {
	tr := testTrace(t, "hmmer", 25_000)
	cfg := Config{PhaseInsts: 10_000, SwitchPenalty: 100}
	r, err := Run(config.Medium(), tr, cfg, PolicyOracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Phases) != 3 { // 10k + 10k + 5k
		t.Fatalf("phases = %d, want 3", len(r.Phases))
	}
	total := 0
	for _, p := range r.Phases {
		total += p.Insts
	}
	if total != tr.Len() {
		t.Errorf("phase insts sum %d != %d", total, tr.Len())
	}
	if r.IPC() <= 0 {
		t.Error("non-positive IPC")
	}
}

// The oracle is a lower bound on cycles among all policies (modulo
// switch penalties, which it also pays).
func TestOracleDominates(t *testing.T) {
	tr := testTrace(t, "gobmk", 30_000)
	cfg := Config{PhaseInsts: 10_000, SwitchPenalty: 200}
	m := config.Medium()
	_, results, err := Compare(m, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := results[PolicyOracle].TotalCycles
	for p, r := range results {
		if p == PolicyOracle {
			continue
		}
		// Allow the penalty slack: the oracle may switch more often.
		slack := uint64(r.Switches+results[PolicyOracle].Switches+2) * cfg.SwitchPenalty
		if oracle > r.TotalCycles+slack {
			t.Errorf("oracle (%d cycles) worse than %s (%d)", oracle, p, r.TotalCycles)
		}
	}
}

// On a workload where Fg-STP clearly wins, both oracle and history
// should spend most phases reconfigured.
func TestAdaptiveTracksWinner(t *testing.T) {
	tr := testTrace(t, "bwaves", 40_000) // fgstp wins big here
	cfg := Config{PhaseInsts: 10_000, SwitchPenalty: 200}
	r, err := Run(config.Medium(), tr, cfg, PolicyOracle)
	if err != nil {
		t.Fatal(err)
	}
	fg := 0
	for _, p := range r.Phases {
		if p.Chosen == cmp.ModeFgSTP {
			fg++
		}
	}
	if fg < len(r.Phases)-1 {
		t.Errorf("oracle chose fgstp for only %d/%d phases on bwaves", fg, len(r.Phases))
	}

	// History lags one phase but must converge.
	rh, err := Run(config.Medium(), tr, cfg, PolicyHistory)
	if err != nil {
		t.Fatal(err)
	}
	fg = 0
	for _, p := range rh.Phases {
		if p.Chosen == cmp.ModeFgSTP {
			fg++
		}
	}
	if fg == 0 {
		t.Error("history policy never reconfigured on a clear winner")
	}
}

// Switch penalties are charged: an oscillation-heavy config must cost
// more than the same decisions with free switches.
func TestSwitchPenaltyCharged(t *testing.T) {
	tr := testTrace(t, "astar", 30_000)
	m := config.Medium()
	free, err := Run(m, tr, Config{PhaseInsts: 5_000, SwitchPenalty: 0}, PolicyHistory)
	if err != nil {
		t.Fatal(err)
	}
	costly, err := Run(m, tr, Config{PhaseInsts: 5_000, SwitchPenalty: 5_000}, PolicyHistory)
	if err != nil {
		t.Fatal(err)
	}
	if costly.Switches != free.Switches {
		t.Fatalf("decision sequence changed with penalty: %d vs %d switches",
			costly.Switches, free.Switches)
	}
	want := free.TotalCycles + uint64(free.Switches)*5_000
	if costly.TotalCycles != want {
		t.Errorf("penalty accounting: got %d, want %d", costly.TotalCycles, want)
	}
}

// Static policies never switch (beyond the initial reconfiguration for
// fgstp).
func TestStaticPoliciesStable(t *testing.T) {
	tr := testTrace(t, "milc", 20_000)
	m := config.Medium()
	rs, err := Run(m, tr, DefaultConfig(), PolicyAlwaysSingle)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Switches != 0 {
		t.Errorf("always-single switched %d times", rs.Switches)
	}
	rf, err := Run(m, tr, DefaultConfig(), PolicyAlwaysFgSTP)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Switches != 1 {
		t.Errorf("always-fgstp switched %d times, want the initial 1", rf.Switches)
	}
}

// Compare measures the phases once and scores every policy from them:
// each of its results must equal a Run of that policy alone.
func TestCompareMatchesRun(t *testing.T) {
	tr := testTrace(t, "astar", 20_000)
	cfg := Config{PhaseInsts: 2_500, SwitchPenalty: 200}
	m := config.Medium()
	_, results, err := Compare(m, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Policies()) {
		t.Fatalf("Compare returned %d policies, want %d", len(results), len(Policies()))
	}
	switched := false
	for _, p := range Policies() {
		r, err := Run(m, tr, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[p], r) {
			t.Errorf("%s: Compare's result differs from Run's:\n%+v\n%+v", p, results[p], r)
		}
		switched = switched || r.Switches > 1
	}
	if !switched {
		t.Error("no policy switched mode after the first phase; the comparison shows little")
	}
}
