// Package energy is an activity-based energy estimator for the
// simulated machines — an *extension* of the reproduction, not a paper
// result. The Fg-STP paper motivates the design with the power wall;
// this model quantifies the trade it implies: Fg-STP (and Core Fusion)
// buy single-thread speed with a second active core, extra fetch work
// for replicas, interconnect transfers and squash waste.
//
// The model charges a fixed energy per microarchitectural event
// (instruction through the front end, issue/execute, cache access at
// each level, DRAM access, value transfer) plus per-cycle static power
// per active core. Event counts come from the simulators' run
// summaries; weights are relative units calibrated to the usual
// first-order ratios (DRAM ≫ L2 ≫ L1 ≫ ALU), not to a specific
// process. Comparisons between modes — the intended use — depend only
// on the ratios.
package energy

import (
	"fmt"

	"repro/internal/stats"
)

// Weights is the per-event energy table, in arbitrary consistent units
// (think pJ).
type Weights struct {
	// Frontend is charged per fetched uop (fetch/decode/rename).
	Frontend float64
	// Issue is charged per issued uop (wakeup/select/execute average).
	Issue float64
	// L1Access, L2Access and DRAMAccess are charged per access at each
	// level (I- and D-side alike).
	L1Access   float64
	L2Access   float64
	DRAMAccess float64
	// CommTransfer is charged per cross-core register-value transfer.
	CommTransfer float64
	// StaticCore is charged per active core per cycle (clock tree +
	// leakage).
	StaticCore float64
	// StaticUncore is charged per cycle for the shared L2 and
	// interconnect.
	StaticUncore float64
}

// Default returns the baseline weight table.
func Default() Weights {
	return Weights{
		Frontend:     8,
		Issue:        10,
		L1Access:     12,
		L2Access:     40,
		DRAMAccess:   400,
		CommTransfer: 15,
		StaticCore:   6,
		StaticUncore: 3,
	}
}

// Validate reports nonsensical weights.
func (w *Weights) Validate() error {
	for name, v := range map[string]float64{
		"frontend": w.Frontend, "issue": w.Issue,
		"l1": w.L1Access, "l2": w.L2Access, "dram": w.DRAMAccess,
		"comm": w.CommTransfer, "static core": w.StaticCore,
		"static uncore": w.StaticUncore,
	} {
		if v < 0 {
			return fmt.Errorf("energy: negative %s weight", name)
		}
	}
	return nil
}

// Breakdown is an energy estimate split by component.
type Breakdown struct {
	// ByComponent maps component names to energy.
	ByComponent map[string]float64
	// Total is the sum, taken in component-name order.
	Total float64
	// EPI is energy per committed program instruction.
	EPI float64
	// EDP is the energy-delay product (total × cycles), the usual
	// efficiency figure of merit.
	EDP float64
}

// Estimate computes the energy breakdown of a finished run. The run
// must carry the event-count extras the simulators record
// (fetched_uops, issued_uops, l1i/l1d/l2/dram accesses, active_cores;
// comm_transfers for Fg-STP).
func Estimate(r *stats.Run, w Weights) (Breakdown, error) {
	if err := w.Validate(); err != nil {
		return Breakdown{}, err
	}
	if r.Get("active_cores") == 0 {
		return Breakdown{}, fmt.Errorf("energy: run %s/%s has no event counts", r.Workload, r.Mode)
	}
	by := map[string]float64{
		"frontend": r.Get("fetched_uops") * w.Frontend,
		"execute":  r.Get("issued_uops") * w.Issue,
		"l1":       (r.Get("l1i_accesses") + r.Get("l1d_accesses")) * w.L1Access,
		"l2":       r.Get("l2_accesses") * w.L2Access,
		"dram":     r.Get("dram_accesses") * w.DRAMAccess,
		"comm":     r.Get("comm_transfers") * w.CommTransfer,
		"static": float64(r.Cycles) *
			(r.Get("active_cores")*w.StaticCore + w.StaticUncore),
	}
	// Sum in name order: with fractional weights, the randomised map
	// order could round Total differently from run to run.
	var total float64
	for _, k := range stats.Names(by) {
		total += by[k]
	}
	b := Breakdown{ByComponent: by, Total: total}
	if r.Insts > 0 {
		b.EPI = total / float64(r.Insts)
	}
	b.EDP = total * float64(r.Cycles)
	return b, nil
}

// Compare summarises the efficiency of one run against a baseline:
// speedup, energy ratio, and EDP ratio (baseline/this; > 1 means this
// run is better).
type Compare struct {
	Speedup     float64
	EnergyRatio float64 // this/baseline: > 1 means this uses more energy
	EDPGain     float64 // baseline/this EDP: > 1 means net efficiency win
}

// Against compares run r (with breakdown b) to a baseline run/breakdown.
func Against(base *stats.Run, baseB Breakdown, r *stats.Run, b Breakdown) Compare {
	c := Compare{Speedup: stats.Speedup(base, r)}
	if baseB.Total > 0 {
		c.EnergyRatio = b.Total / baseB.Total
	}
	if b.EDP > 0 {
		c.EDPGain = baseB.EDP / b.EDP
	}
	return c
}
