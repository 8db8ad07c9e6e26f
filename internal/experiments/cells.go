package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// A simulation *cell* is the atomic unit every experiment decomposes
// into: one cmp run of one execution mode on one workload trace under
// one machine configuration. The experiment harness reaches the engine
// exclusively through runner.cellRun below, which makes the cell the
// natural granularity for memoisation: the session memo in cellRun
// runs each distinct cell once (E2 and E4 share every medium
// single-core and full-fabric Fg-STP cell), and the fgstpd daemon
// installs a CellFunc that serves cells from its content-addressed
// result cache, so repeated sweeps share work too.

// CellFunc runs one simulation cell. The trace is the session's shared
// immutable capture of w at the session budget; implementations must
// return a run byte-equivalent to cmp.Run(m, mode, tr) — experiment
// documents are rendered from the returned runs, and the repository's
// byte-identity guarantees extend over any installed cell runner. A
// CellFunc is called from the session's worker pool and must be safe
// for concurrent use.
type CellFunc func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error)

// SetCellRunner intercepts every clean simulation cell of the session
// with fn (nil restores the direct engine path). Poisoned cells
// (Session.Poison) never reach the runner: a fault-injected run is
// deliberately outside any memoisation contract.
func (s *Session) SetCellRunner(fn CellFunc) { s.r.cell = fn }

// CellConfig is a cell's canonical machine identity: m as JSON with the
// sections mode never reads blanked (single-core runs read Core and
// Hier, Core Fusion also Fusion, Fg-STP also the fabric), so every
// fabric variant of a preset shares its single-core cell. The session
// memo and the fgstpd cell cache both key by it.
func CellConfig(m config.Machine, mode cmp.Mode) ([]byte, error) {
	switch mode {
	case cmp.ModeSingle:
		m.Fusion = config.FusionOverheads{}
		m.FgSTP = config.FgSTP{}
	case cmp.ModeFusion:
		m.FgSTP = config.FgSTP{}
	}
	return m.ToJSON()
}

// cellRun is the single interception point between the experiment
// harness and the simulation engine: every clean cell of every
// experiment funnels through here, and the session memo in front of
// the engine and any installed CellFunc runs each distinct cell once.
// The key needs no trace (one per workload at the session budget), and
// failed cells are not memoised, so a cancellation is never pinned.
func (r *runner) cellRun(m config.Machine, mode cmp.Mode, w workloads.Workload) (stats.Run, error) {
	cfg, err := CellConfig(m, mode)
	if err != nil {
		return stats.Run{}, err
	}
	return r.memo.Do(string(mode)+"/"+w.Name+"/"+string(cfg), func() (stats.Run, error) {
		tr := r.traceOf(w)
		if r.cell != nil {
			return r.cell(m, mode, w, tr)
		}
		return cmp.Run(m, mode, tr)
	})
}

// Cell identifies one simulation cell of an experiment: the full
// machine configuration (ablations and sweeps mutate the Fg-STP fabric
// of a preset without renaming it, so the name alone is not the
// identity), the execution mode and the workload.
type Cell struct {
	Machine  config.Machine
	Mode     cmp.Mode
	Workload string
}

// Cells enumerates the simulation cells experiment id will run at the
// given per-cell instruction budget (0 picks the default of 100k), in
// deterministic submission order, by executing the experiment under a
// recording stub cell runner — no engine simulation runs, only trace
// capture. The enumeration mirrors execution exactly: each distinct
// (mode, workload, CellConfig) cell appears once, in the order the
// session memo first asks for it.
//
// E12 is the one experiment that does not decompose into cmp cells
// (its phase-granularity simulations run inside internal/adaptive), so
// enumerating it is an error rather than an expensive full run.
func Cells(id string, insts uint64) ([]Cell, error) {
	if id == "E12" {
		return nil, fmt.Errorf("experiment E12 does not decompose into simulation cells (phase-level runs live in internal/adaptive)")
	}
	// One worker keeps the recording in submission order.
	s := NewSession(insts, 1)
	var mu sync.Mutex
	var cells []Cell
	s.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, _ *trace.Trace) (stats.Run, error) {
		mu.Lock()
		cells = append(cells, Cell{Machine: m, Mode: mode, Workload: w.Name})
		mu.Unlock()
		// A minimal plausible run keeps every aggregation path alive
		// (the energy model rejects runs without an active_cores
		// counter); the rendered result is discarded.
		run := stats.Run{Workload: w.Name, Mode: string(mode), Cycles: 1, Insts: 1}
		run.Set("active_cores", 1)
		return run, nil
	})
	if _, err := s.Run(id); err != nil {
		return nil, err
	}
	return cells, nil
}

// allIDs is the hoisted experiment id universe: the paper set in order,
// then the extensions. Built once — request validation must not rebuild
// it per call.
var allIDs = append(IDs(), ExtensionIDs()...)

// idSet indexes allIDs for O(1) validation.
var idSet = func() map[string]bool {
	set := make(map[string]bool, len(allIDs))
	for _, id := range allIDs {
		set[id] = true
	}
	return set
}()

// AllIDs lists every experiment id: E1..E10, then the extensions
// E11/E12. Callers own the returned slice.
func AllIDs() []string {
	out := make([]string, len(allIDs))
	copy(out, allIDs)
	return out
}

// ValidID reports whether id names an experiment (paper set or
// extension).
func ValidID(id string) bool { return idSet[id] }
