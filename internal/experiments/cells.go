package experiments

import (
	"context"
	"slices"
	"sync/atomic"

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
		if r.plan != nil {
			*r.plan = append(*r.plan, Cell{Machine: m, Mode: mode, Workload: w.Name})
			// A plausible run keeps every aggregation path alive (energy
			// needs active_cores); the planner's documents are discarded.
			run := stats.Run{Workload: w.Name, Mode: string(mode), Cycles: 1, Insts: 1}
			run.Set("active_cores", 1)
			return run, nil
		}
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

// planner returns a runner that records each clean cell the memo first
// asks for, in that order, and answers it with a stub run. A poisoned
// Fg-STP cell, never memoised, is not recorded and fails. No trace is
// captured.
func planner(insts uint64, poison string) *runner {
	p := newRunner(insts, 1)
	p.poison, p.plan = poison, new([]Cell)
	return p
}

// cellsOf runs ids on planner p and returns the cells it recorded; the
// error is an unknown id's. E12's phase-level simulations run inside
// internal/adaptive, not as cells, so it is skipped.
func (p *runner) cellsOf(ids []string) ([]Cell, error) {
	for _, id := range ids {
		if id == "E12" {
			continue
		}
		if _, err := p.run(id); err != nil {
			return nil, err
		}
	}
	return *p.plan, nil
}

// execute simulates the planned cells into the session memo as one task
// list, workload by workload (workloads in first-appearance order, each
// one's cells in plan order). A workload's first cell captures its
// trace and its last forgets it, so at most one trace per worker is
// resident. A failed cell is not memoised and simulates again when its
// experiment renders.
func (r *runner) execute(cells []Cell) Pool {
	first := map[string]int{}
	left := map[string]*atomic.Int64{}
	for _, c := range cells {
		if _, ok := first[c.Workload]; !ok {
			first[c.Workload] = len(first)
			left[c.Workload] = new(atomic.Int64)
		}
		left[c.Workload].Add(1)
	}
	slices.SortStableFunc(cells, func(a, b Cell) int { return first[a.Workload] - first[b.Workload] })
	_, _, pool := mapTimed(r.ctx, r.jobs, cells, func(c Cell) (struct{}, error) {
		defer func() {
			if left[c.Workload].Add(-1) == 0 {
				r.traces.Forget(c.Workload)
			}
		}()
		w, _ := workloads.ByName(c.Workload)
		_, err := r.cellRun(c.Machine, c.Mode, w)
		return struct{}{}, err
	})
	return pool
}

// Evaluation is Session.Evaluate's outcome: the results in id order,
// the cell pool's use and the most traces resident at once. Only
// Results enter a rendered document.
type Evaluation struct {
	Results []*Result
	Pool
	PeakTraces int
}

// Evaluate runs experiments ids on the session in three phases: plan
// their distinct clean cells (see planner), execute them workload by
// workload so each trace is resident only while its cells run (see
// execute), then render each experiment in turn, reading its cells one
// at a time through runOf. Clean cells are memo hits by then; poisoned
// and failed cells, and any the plan missed, simulate while rendering,
// in the order the experiment asks for them, so the results are the
// same whatever the plan and the worker count. The error is an unknown
// id's, an experiment's, or ctx's once ctx is done (cells not yet
// simulated are then skipped and the results must not be rendered).
func (s *Session) Evaluate(ctx context.Context, ids []string) (*Evaluation, error) {
	cells, err := planner(s.r.insts, s.r.poison).cellsOf(ids)
	if err != nil {
		return nil, err
	}
	s.r.ctx = ctx
	defer func() { s.r.ctx = context.Background() }()
	ev := &Evaluation{Pool: s.r.execute(cells)}
	for _, id := range ids {
		res, err := s.r.run(id)
		if err != nil {
			return nil, err
		}
		ev.Results = append(ev.Results, res)
	}
	ev.PeakTraces = s.r.traces.Peak()
	return ev, ctx.Err()
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
