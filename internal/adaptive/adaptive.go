// Package adaptive studies dynamic reconfiguration — the deployment
// story the Fg-STP paper implies: the two cores are *reconfigured* into
// Fg-STP mode when a single thread benefits, and back to independent
// cores when it does not. This package models a phase-granularity
// controller that chooses the execution mode per phase of a program,
// charging a reconfiguration penalty on every switch. Every phase is
// simulated once in both modes; each policy is then scored from those
// measurements, so comparing policies costs no further simulation.
//
// It is an extension of the reproduction (the paper evaluates the
// steady-state modes; region-level policy is future work there). Phase
// simulations start from cold microarchitectural state — an
// approximation applied identically to every mode, so relative phase
// comparisons hold.
package adaptive

import (
	"fmt"
	"slices"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Policy selects how the controller picks a mode for each phase.
type Policy string

// Policies.
const (
	// PolicyOracle picks each phase's fastest mode — the upper bound.
	PolicyOracle Policy = "oracle"
	// PolicyHistory runs the mode that won the previous phase — a
	// realistic last-value predictor with one-phase lag.
	PolicyHistory Policy = "history"
	// PolicyAlwaysFgSTP stays reconfigured for the whole run.
	PolicyAlwaysFgSTP Policy = "fgstp"
	// PolicyAlwaysSingle never reconfigures.
	PolicyAlwaysSingle Policy = "single"
)

// Policies lists all policies in comparison order.
func Policies() []Policy {
	return []Policy{PolicyAlwaysSingle, PolicyAlwaysFgSTP, PolicyHistory, PolicyOracle}
}

// Config parameterises the controller.
type Config struct {
	// PhaseInsts is the reconfiguration granularity in instructions.
	PhaseInsts int
	// SwitchPenalty is the cycle cost of a reconfiguration (drain the
	// pipeline, migrate architectural state, redirect fetch).
	SwitchPenalty uint64
}

// DefaultConfig is a 10k-instruction phase with a 200-cycle switch.
func DefaultConfig() Config {
	return Config{PhaseInsts: 10_000, SwitchPenalty: 200}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.PhaseInsts < 100 {
		return fmt.Errorf("adaptive: phase of %d insts too small", c.PhaseInsts)
	}
	return nil
}

// Phase records one phase's measurements and the controller's choice.
type Phase struct {
	Index        int
	Insts        int
	CyclesSingle uint64
	CyclesFgSTP  uint64
	Chosen       cmp.Mode
	Switched     bool
}

// Result summarises an adaptive run.
type Result struct {
	Workload string
	Policy   Policy
	Phases   []Phase
	// TotalCycles includes switch penalties.
	TotalCycles uint64
	Switches    int
	Insts       uint64
}

// IPC returns committed instructions per cycle including switch costs.
func (r *Result) IPC() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.TotalCycles)
}

// Run simulates tr phase by phase in both modes, then scores the
// measurements under policy (see Compare for every policy at once).
func Run(m config.Machine, tr *trace.Trace, cfg Config, policy Policy) (Result, error) {
	if !slices.Contains(Policies(), policy) {
		return Result{}, fmt.Errorf("adaptive: unknown policy %q", policy)
	}
	phases, err := measure(m, tr, cfg)
	if err != nil {
		return Result{}, err
	}
	return score(tr, phases, cfg, policy), nil
}

// measure simulates every phase of tr in both modes. The phases it
// returns carry the measurements only; score makes the choices.
func measure(m config.Machine, tr *trace.Trace, cfg Config) ([]Phase, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("adaptive: empty trace")
	}
	var phases []Phase
	for start := 0; start < tr.Len(); start += cfg.PhaseInsts {
		sub := tr.Slice(start, min(start+cfg.PhaseInsts, tr.Len()))
		single, err := cmp.Run(m, cmp.ModeSingle, sub)
		if err != nil {
			return nil, err
		}
		fgstp, err := cmp.Run(m, cmp.ModeFgSTP, sub)
		if err != nil {
			return nil, err
		}
		phases = append(phases, Phase{
			Index:        len(phases),
			Insts:        sub.Len(),
			CyclesSingle: single.Cycles,
			CyclesFgSTP:  fgstp.Cycles,
		})
	}
	return phases, nil
}

// score chooses a mode for each measured phase under policy and charges
// SwitchPenalty on every change of mode. The cores start unreconfigured,
// so choosing Fg-STP for the first phase is a switch too. It simulates
// nothing.
func score(tr *trace.Trace, measured []Phase, cfg Config, policy Policy) Result {
	res := Result{Workload: tr.Name, Policy: policy, Insts: uint64(tr.Len()),
		Phases: make([]Phase, len(measured))}
	prev := cmp.ModeSingle
	for i, ph := range measured {
		switch policy {
		case PolicyOracle:
			ph.Chosen = winner(ph)
		case PolicyHistory:
			// Cold start: sample in single-core mode.
			ph.Chosen = cmp.ModeSingle
			if i > 0 {
				ph.Chosen = winner(measured[i-1])
			}
		case PolicyAlwaysFgSTP:
			ph.Chosen = cmp.ModeFgSTP
		case PolicyAlwaysSingle:
			ph.Chosen = cmp.ModeSingle
		}
		cycles := ph.CyclesSingle
		if ph.Chosen == cmp.ModeFgSTP {
			cycles = ph.CyclesFgSTP
		}
		if ph.Chosen != prev {
			ph.Switched = true
			res.Switches++
			cycles += cfg.SwitchPenalty
		}
		res.TotalCycles += cycles
		prev = ph.Chosen
		res.Phases[i] = ph
	}
	return res
}

// winner returns the faster mode of a measured phase (single on a tie).
func winner(p Phase) cmp.Mode {
	if p.CyclesFgSTP < p.CyclesSingle {
		return cmp.ModeFgSTP
	}
	return cmp.ModeSingle
}

// Compare measures every phase of tr once, scores every policy on those
// measurements and returns a formatted table plus the per-policy
// results keyed by policy. Each result equals Run's for that policy.
func Compare(m config.Machine, tr *trace.Trace, cfg Config) (*stats.Table, map[Policy]Result, error) {
	phases, err := measure(m, tr, cfg)
	if err != nil {
		return nil, nil, err
	}
	tb := stats.NewTable(
		fmt.Sprintf("adaptive reconfiguration on %s (%d-inst phases, %d-cycle switch)",
			tr.Name, cfg.PhaseInsts, cfg.SwitchPenalty),
		"policy", "cycles", "IPC", "switches", "fgstp phases")
	out := make(map[Policy]Result, len(Policies()))
	for _, p := range Policies() {
		r := score(tr, phases, cfg, p)
		out[p] = r
		fg := 0
		for _, ph := range r.Phases {
			if ph.Chosen == cmp.ModeFgSTP {
				fg++
			}
		}
		tb.AddRowf(string(p), fmt.Sprintf("%d", r.TotalCycles), r.IPC(),
			r.Switches, fmt.Sprintf("%d/%d", fg, len(r.Phases)))
	}
	return tb, out, nil
}
