// Package experiments regenerates every table and figure of the Fg-STP
// evaluation (as reconstructed in DESIGN.md — see the source-text
// caveat there): experiment identifiers E1..E10 map to the paper's
// configuration table, the two headline speedup figures, the mechanism
// ablations, the fabric sensitivity sweeps, the characterisation table
// and the suite split.
//
// Each experiment returns formatted tables plus named headline metrics
// (geomeans, fractions) that EXPERIMENTS.md records against the paper's
// reported shape and the repository tests assert on.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Result is the output of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	// Notes explain what the experiment stands in for and how to read
	// it.
	Notes []string
	// Metrics are the headline numbers (keyed by snake_case name).
	Metrics map[string]float64
	// Failures lists every failed simulation cell ("context: error"),
	// in deterministic submission order. A failed cell renders as
	// FAIL(reason) in the tables and is excluded from geomeans; the
	// rest of the experiment still completes.
	Failures []string
}

// Failed reports whether any simulation cell of the experiment failed.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

func (r *Result) metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[key] = v
}

// String renders the full experiment output.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		out += "   " + n + "\n"
	}
	for _, f := range r.Failures {
		out += "   FAIL " + f + "\n"
	}
	out += "\n"
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out += fmt.Sprintf("   %-40s %.4f\n", k, r.Metrics[k])
		}
	}
	return out
}

// runner bundles the common parameters of an experiment run: the
// per-simulation instruction budget, the worker count the job lists fan
// out over, and the session-wide single-flight trace and cell caches.
type runner struct {
	insts uint64
	// jobs is the worker count for sched.Map fan-out (<= 0 picks
	// GOMAXPROCS).
	jobs int
	// ctx cancels the fan-outs between simulations (never nil; the
	// default is context.Background()). An individual simulation is
	// bounded by the livelock watchdog, so cancellation takes effect at
	// the next cell boundary.
	ctx context.Context
	// poison names a workload whose Fg-STP runs get a channel-stall
	// fault injected (empty = none); see Session.Poison.
	poison string
	// traces caches captured workload traces. Single-flight: under the
	// pool, the first job to ask captures while the rest wait. Evaluate
	// forgets each one after the last cell it planned for it.
	traces sched.Cache[string, *trace.Trace]
	// memo holds every clean cell the session has run, keyed by mode,
	// workload and canonical cell config (see cellRun in cells.go), so
	// each distinct cell of every mode simulates at most once per
	// session.
	memo sched.Cache[string, stats.Run]
	// cell, when non-nil, intercepts every clean simulation cell in
	// place of the direct engine call (see SetCellRunner in cells.go).
	// Poisoned Fg-STP cells bypass it: degraded runs are never
	// memoisable.
	cell CellFunc
	// plan, when non-nil, makes the runner a planner (see cells.go).
	plan *[]Cell
}

func newRunner(insts uint64, jobs int) *runner {
	return &runner{insts: insts, jobs: jobs, ctx: context.Background()}
}

// traceOf captures (and memoises, single-flight) a workload trace.
// Traces are immutable after capture (see internal/trace), so the
// shared pointer is safe to replay on any number of concurrent
// machines.
func (r *runner) traceOf(w workloads.Workload) *trace.Trace {
	t, _ := r.traces.Do(w.Name, func() (*trace.Trace, error) {
		return w.Trace(r.insts), nil
	})
	return t
}

// runOf runs one (machine, mode, workload) cell through the session
// memo. A poisoned workload's Fg-STP cells (see Session.Poison) bypass
// it and run with a fresh channel-stall fault: injectors carry state,
// so concurrent cells never share one.
func (r *runner) runOf(m config.Machine, mode cmp.Mode, w workloads.Workload) (stats.Run, error) {
	if mode == cmp.ModeFgSTP && w.Name == r.poison {
		if r.plan != nil {
			return stats.Run{}, cmp.ErrLivelock // what the stalled channel ends in
		}
		return cmp.RunOpts(m, mode, r.traceOf(w), cmp.Options{Faults: faults.ChannelStall(0)})
	}
	return r.cellRun(m, mode, w)
}

// outcome is one simulation cell: its run on success, its error on
// failure.
type outcome struct {
	run stats.Run
	err error
}

// failReason classifies a cell failure for the compact FAIL(reason)
// table rendering.
func failReason(err error) string {
	var pe *sched.PanicError
	switch {
	case errors.Is(err, cmp.ErrLivelock):
		return "livelock"
	case errors.As(err, &pe):
		return "panic"
	default:
		return "error"
	}
}

// failCell renders a failed cell.
func failCell(err error) string { return "FAIL(" + failReason(err) + ")" }

// ipcCell renders an outcome's IPC, or its failure.
func ipcCell(o outcome) string {
	if o.err != nil {
		return failCell(o.err)
	}
	return fmt.Sprintf("%.3f", o.run.IPC())
}

// degrade records failed cells on res: the per-cell failure lines and
// the geomean-exclusion note. total is how many simulation cells the
// experiment attempted. With no failures it records nothing.
func degrade(res *Result, failures []string, total int) {
	if len(failures) == 0 {
		return
	}
	res.Failures = append(res.Failures, failures...)
	res.Notes = append(res.Notes,
		fmt.Sprintf("DEGRADED: excluded %d of %d simulations from aggregates; failed cells render FAIL(reason).",
			len(failures), total))
}

// notedGeomean computes a geomean via stats.GeomeanN and surfaces any
// excluded non-positive cells as an experiment note: a zero speedup is
// the failed-run sentinel (stats.Speedup over zero cycles), never a
// real measurement, so dropping one silently would misreport how many
// workloads the aggregate actually covers.
func notedGeomean(res *Result, label string, vals []float64) float64 {
	gm, excluded := stats.GeomeanN(vals)
	if excluded > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("%s: excluded %d non-positive cell(s) from the geomean.",
				label, excluded))
	}
	return gm
}

// gridOutcomes fans the (workload × mode) simulation grid out over the
// pool and returns, per workload in the given order, the cell outcomes
// keyed by mode, plus the failure lines in submission order. Failed
// cells never abort the grid: every cell runs.
func (r *runner) gridOutcomes(m config.Machine, ws []workloads.Workload, modes []cmp.Mode) ([]map[cmp.Mode]outcome, []string) {
	type cell struct {
		w    workloads.Workload
		mode cmp.Mode
	}
	cells := make([]cell, 0, len(ws)*len(modes))
	for _, w := range ws {
		for _, mode := range modes {
			cells = append(cells, cell{w, mode})
		}
	}
	runs, errs := sched.MapAllCtx(r.ctx, r.jobs, cells, func(c cell) (stats.Run, error) {
		return r.runOf(m, c.mode, c.w)
	})
	out := make([]map[cmp.Mode]outcome, len(ws))
	var failures []string
	for i := range ws {
		out[i] = make(map[cmp.Mode]outcome, len(modes))
		for j, mode := range modes {
			idx := i*len(modes) + j
			out[i][mode] = outcome{runs[idx], errs[idx]}
			if errs[idx] != nil {
				failures = append(failures,
					fmt.Sprintf("%s/%s/%s: %v", m.Name, ws[i].Name, mode, errs[idx]))
			}
		}
	}
	return out, failures
}

// speedup runs one (single, fgstp) cell pair and returns the Fg-STP
// speedup over the single core.
func (r *runner) speedup(m config.Machine, w workloads.Workload) (float64, error) {
	s, err := r.runOf(m, cmp.ModeSingle, w)
	if err != nil {
		return 0, err
	}
	g, err := r.runOf(m, cmp.ModeFgSTP, w)
	if err != nil {
		return 0, err
	}
	return stats.Speedup(&s, &g), nil
}

// IDs lists the paper-reconstruction experiment identifiers in order.
// The extension studies E11 (energy) and E12 (adaptive reconfiguration)
// run individually but are excluded from "all".
func IDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"}
}

// ExtensionIDs lists the extension experiments.
func ExtensionIDs() []string { return []string{"E11", "E12"} }

// Session runs experiments with shared single-flight caches: across an
// `-experiment all` run each workload trace is captured once and each
// distinct cell simulated once, no matter how many experiments (or
// concurrent jobs within one) ask for it. Sessions are safe for use
// from one goroutine at a time; the parallelism lives in the job lists
// (Evaluate's cell list, each experiment's), which fan out over the
// session's worker count.
type Session struct {
	r *runner
}

// NewSession creates a session with the given per-simulation
// instruction budget (0 picks the default of 100k) and worker count
// (<= 0 picks GOMAXPROCS).
func NewSession(insts uint64, jobs int) *Session {
	if insts == 0 {
		insts = 100_000
	}
	return &Session{r: newRunner(insts, jobs)}
}

// Poison marks one workload for deterministic fault injection: every
// Fg-STP simulation of it runs with the inter-core channel stalled
// from cycle 0, which starves the consumer core and drives the run
// into the livelock watchdog. The baselines (single, fusion) are
// unaffected. Poisoning exercises the degradation path end to end:
// the poisoned cells render FAIL(livelock), their workload drops out
// of the geomeans, and every other experiment cell still completes.
func (s *Session) Poison(workload string) { s.r.poison = workload }

// Run executes one experiment with the given per-run instruction
// budget (0 picks the default of 100k), fanning its job list out over
// GOMAXPROCS workers. Results are independent of worker count. Use a
// Session to share trace and cell caches across experiments.
func Run(id string, insts uint64) (*Result, error) {
	return NewSession(insts, 0).Run(id)
}

// RunCtx executes one experiment on the session with cancellation
// threaded into every simulation fan-out: once ctx is done no new
// simulation cell starts, cells already in flight finish (each is
// bounded by the livelock watchdog), and the skipped cells surface as
// FAIL cells carrying ctx's error. Sessions are single-goroutine, so
// the context applies to this call only.
func (s *Session) RunCtx(ctx context.Context, id string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prev := s.r.ctx
	s.r.ctx = ctx
	defer func() { s.r.ctx = prev }()
	return s.Run(id)
}

// Run executes one experiment on the session.
func (s *Session) Run(id string) (*Result, error) { return s.r.run(id) }

func (r *runner) run(id string) (*Result, error) {
	switch id {
	case "E1":
		return r.e1()
	case "E2":
		return r.speedupFigure("E2", config.Medium())
	case "E3":
		return r.speedupFigure("E3", config.Small())
	case "E4":
		return r.e4()
	case "E5":
		return r.e5()
	case "E6":
		return r.e6()
	case "E7":
		return r.e7()
	case "E8":
		return r.e8()
	case "E9":
		return r.e9()
	case "E10":
		return r.e10()
	case "E11":
		return r.e11()
	case "E12":
		return r.e12()
	default:
		return nil, fmt.Errorf("unknown experiment %q (want E1..E10, or extensions E11/E12)", id)
	}
}

// ---------------------------------------------------------------- E1

func (r *runner) e1() (*Result, error) {
	res := &Result{
		ID:    "E1",
		Title: "Machine configurations (stands in for the paper's Table 1)",
		Notes: []string{
			"Small/medium core sizings follow the Core Fusion design points the paper compares on.",
		},
	}
	tb := stats.NewTable("Core pipelines", "parameter", "small", "medium")
	s, m := config.Small(), config.Medium()
	row := func(name string, a, b int) { tb.AddRowf(name, a, b) }
	row("fetch/rename/issue/commit width", s.Core.FetchWidth, m.Core.FetchWidth)
	row("ROB entries", s.Core.ROBSize, m.Core.ROBSize)
	row("issue queue entries", s.Core.IQSize, m.Core.IQSize)
	row("load/store queue", s.Core.LQSize, m.Core.LQSize)
	row("int ALUs", s.Core.IntALU, m.Core.IntALU)
	row("FPUs", s.Core.FPU, m.Core.FPU)
	row("load ports", s.Core.LoadPorts, m.Core.LoadPorts)
	row("frontend depth (cycles)", s.Core.FrontendDepth, m.Core.FrontendDepth)
	row("L1D KiB", s.Hier.L1D.SizeBytes>>10, m.Hier.L1D.SizeBytes>>10)
	row("L1D hit cycles", s.Hier.L1D.LatencyCycles, m.Hier.L1D.LatencyCycles)
	row("L2 KiB (shared)", s.Hier.L2.SizeBytes>>10, m.Hier.L2.SizeBytes>>10)
	row("L2 hit cycles", s.Hier.L2.LatencyCycles, m.Hier.L2.LatencyCycles)
	row("DRAM cycles", s.Hier.DRAMLatency, m.Hier.DRAMLatency)
	res.Tables = append(res.Tables, tb)

	f := m.FgSTP
	tf := stats.NewTable("Fg-STP fabric (both presets)", "parameter", "value")
	tf.AddRowf("lookahead window (insts)", f.Window)
	tf.AddRowf("comm latency (cycles)", f.CommLatency)
	tf.AddRowf("comm bandwidth (values/cycle/dir)", f.CommBandwidth)
	tf.AddRowf("comm queue (values)", f.CommQueue)
	tf.AddRowf("sequencer fetch bandwidth", f.FetchBandwidth)
	tf.AddRowf("steering", f.Steering)
	tf.AddRowf("balance threshold", f.BalanceThreshold)
	tf.AddRowf("dep pred bits (load-wait table)", f.DepPredBits)
	res.Tables = append(res.Tables, tf)

	fo := m.Fusion
	tc := stats.NewTable("Core Fusion overheads (ISCA'07 terms)", "parameter", "value")
	tc.AddRowf("extra frontend stages", fo.ExtraFrontend)
	tc.AddRowf("extra mispredict cycles", fo.ExtraMispredict)
	tc.AddRowf("cross-cluster bypass (cycles)", fo.CrossClusterBypass)
	tc.AddRowf("L1 crossbar latency (cycles)", fo.L1CrossbarLatency)
	res.Tables = append(res.Tables, tc)
	return res, nil
}

// ------------------------------------------------------------- E2 / E3

// speedupFigure regenerates the per-benchmark speedup figure for one
// machine: Fg-STP and Core Fusion over the single core.
func (r *runner) speedupFigure(id string, m config.Machine) (*Result, error) {
	res := &Result{
		ID: id,
		Title: fmt.Sprintf("Per-benchmark speedup on the %s 2-core CMP (headline figure)",
			m.Name),
		Notes: []string{
			"Paper shape: Fg-STP beats Core Fusion by ~18% (medium) / ~7% (small) geomean on SPEC 2006.",
		},
	}
	tb := stats.NewTable(
		fmt.Sprintf("IPC and speedup over single core (%s, %d insts/run)", m.Name, r.insts),
		"benchmark", "suite", "single", "corefusion", "fgstp", "fusion/single", "fgstp/single", "fgstp/fusion")

	// Job list: every workload in every mode, fanned out over the
	// pool; results come back in submission order so the aggregation
	// below is byte-identical to the serial loop it replaced. A failed
	// cell renders FAIL(reason) and drops its workload from the
	// geomeans; the rest of the figure still computes.
	ws := workloads.All()
	runs, failures := r.gridOutcomes(m, ws, cmp.Modes())
	var spS, spF []float64
	var spSInt, spSFp []float64
	for i, w := range ws {
		os, of, og := runs[i][cmp.ModeSingle], runs[i][cmp.ModeFusion], runs[i][cmp.ModeFgSTP]
		if os.err != nil || of.err != nil || og.err != nil {
			tb.AddRow(w.Name, w.Suite, ipcCell(os), ipcCell(of), ipcCell(og), "-", "-", "-")
			continue
		}
		s, f, g := os.run, of.run, og.run
		gs := stats.Speedup(&s, &g)
		gf := stats.Speedup(&f, &g)
		spS = append(spS, gs)
		spF = append(spF, gf)
		if w.Suite == "int" {
			spSInt = append(spSInt, gs)
		} else {
			spSFp = append(spSFp, gs)
		}
		tb.AddRowf(w.Name, w.Suite, s.IPC(), f.IPC(), g.IPC(),
			stats.Speedup(&s, &f), gs, gf)
	}
	gmS := notedGeomean(res, "fgstp/single", spS)
	gmF := notedGeomean(res, "fgstp/fusion", spF)
	tb.AddRowf("GEOMEAN", "", "", "", "", "", gmS, gmF)
	res.Tables = append(res.Tables, tb)
	degrade(res, failures, len(ws)*len(cmp.Modes()))
	res.metric("geomean_fgstp_vs_single", gmS)
	res.metric("geomean_fgstp_vs_fusion", gmF)
	res.metric("geomean_int_fgstp_vs_single", notedGeomean(res, "int fgstp/single", spSInt))
	res.metric("geomean_fp_fgstp_vs_single", notedGeomean(res, "fp fgstp/single", spSFp))
	return res, nil
}

// ---------------------------------------------------------------- E4

// e4 ablates the three headline mechanisms (medium machine).
func (r *runner) e4() (*Result, error) {
	res := &Result{
		ID:    "E4",
		Title: "Mechanism ablation (medium): replication, dependence speculation, steering",
		Notes: []string{
			"Each variant removes one mechanism; speedups are geomeans over the single core.",
		},
	}
	variants := []struct {
		name   string
		mutate func(*config.Machine)
	}{
		{"full", func(*config.Machine) {}},
		{"no-replication", func(m *config.Machine) { m.FgSTP.Replication = false }},
		{"no-dep-speculation", func(m *config.Machine) { m.FgSTP.DepSpeculation = false }},
		{"steer-roundrobin", func(m *config.Machine) { m.FgSTP.Steering = "roundrobin" }},
		{"steer-chunk64", func(m *config.Machine) { m.FgSTP.Steering = "chunk64" }},
	}
	tb := stats.NewTable("Geomean speedup over single core",
		"variant", "geomean", "vs full")
	// One job list spans every (variant × workload) pair; the shared
	// single-core baseline (the variants mutate only the Fg-STP
	// fabric) is computed once via the session memo.
	ws := workloads.All()
	type cell struct {
		vi int
		w  workloads.Workload
	}
	machines := make([]config.Machine, len(variants))
	cells := make([]cell, 0, len(variants)*len(ws))
	for i, v := range variants {
		m := config.Medium()
		v.mutate(&m)
		machines[i] = m
		for _, w := range ws {
			cells = append(cells, cell{i, w})
		}
	}
	sp, errs := sched.MapAllCtx(r.ctx, r.jobs, cells, func(c cell) (float64, error) {
		return r.speedup(machines[c.vi], c.w)
	})
	var failures []string
	var full float64
	for i, v := range variants {
		var vals []float64
		for j := range ws {
			idx := i*len(ws) + j
			if errs[idx] != nil {
				failures = append(failures,
					fmt.Sprintf("%s/%s: %v", v.name, ws[j].Name, errs[idx]))
				continue
			}
			vals = append(vals, sp[idx])
		}
		gm := notedGeomean(res, v.name, vals)
		if v.name == "full" {
			full = gm
		}
		tb.AddRowf(v.name, gm, gm/full)
		res.metric("geomean_"+v.name, gm)
	}
	res.Tables = append(res.Tables, tb)
	degrade(res, failures, len(cells))
	return res, nil
}

// ---------------------------------------------------------------- E5

func (r *runner) e5() (*Result, error) {
	res := &Result{
		ID:    "E5",
		Title: "Inter-core communication latency sensitivity (medium)",
		Notes: []string{"Geomean Fg-STP speedup over single core as the value-transfer latency grows."},
	}
	tb := stats.NewTable("Comm latency sweep", "latency", "geomean speedup", "vs 1-cycle")
	var base float64
	var sw sweep
	for _, lat := range []int{1, 2, 4, 8} {
		m := config.Medium()
		m.FgSTP.CommLatency = lat
		gm := r.fgstpGeomean(res, &sw, fmt.Sprintf("lat%d", lat), m)
		if lat == 1 {
			base = gm
		}
		tb.AddRowf(fmt.Sprintf("%d", lat), gm, gm/base)
		res.metric(fmt.Sprintf("geomean_lat%d", lat), gm)
	}
	res.Tables = append(res.Tables, tb)
	degrade(res, sw.failures, sw.total)
	return res, nil
}

// ---------------------------------------------------------------- E6

func (r *runner) e6() (*Result, error) {
	res := &Result{
		ID:    "E6",
		Title: "Communication bandwidth and queue sensitivity (medium)",
		Notes: []string{
			"Bandwidth swept at the default 2-cycle latency; queue swept at 8-cycle latency where occupancy binds.",
		},
	}
	tb := stats.NewTable("Bandwidth sweep (latency 2, queue 16)",
		"values/cycle", "geomean speedup")
	var sw sweep
	for _, bw := range []int{1, 2, 4} {
		m := config.Medium()
		m.FgSTP.CommBandwidth = bw
		gm := r.fgstpGeomean(res, &sw, fmt.Sprintf("bw%d", bw), m)
		tb.AddRowf(fmt.Sprintf("%d", bw), gm)
		res.metric(fmt.Sprintf("geomean_bw%d", bw), gm)
	}
	res.Tables = append(res.Tables, tb)

	tq := stats.NewTable("Queue sweep (latency 8, bandwidth 2)",
		"queue entries", "geomean speedup")
	for _, q := range []int{4, 16, 64} {
		m := config.Medium()
		m.FgSTP.CommLatency = 8
		m.FgSTP.CommQueue = q
		gm := r.fgstpGeomean(res, &sw, fmt.Sprintf("q%d", q), m)
		tq.AddRowf(fmt.Sprintf("%d", q), gm)
		res.metric(fmt.Sprintf("geomean_q%d", q), gm)
	}
	res.Tables = append(res.Tables, tq)

	// Stress variant: round-robin steering generates an order of
	// magnitude more traffic, exposing the channel limits the
	// affinity-steered machine never reaches.
	ts := stats.NewTable("Bandwidth sweep under round-robin steering (stress)",
		"values/cycle", "geomean speedup")
	for _, bw := range []int{1, 2, 4} {
		m := config.Medium()
		m.FgSTP.Steering = "roundrobin"
		m.FgSTP.CommBandwidth = bw
		gm := r.fgstpGeomean(res, &sw, fmt.Sprintf("rr-bw%d", bw), m)
		ts.AddRowf(fmt.Sprintf("%d", bw), gm)
		res.metric(fmt.Sprintf("geomean_stress_bw%d", bw), gm)
	}
	res.Tables = append(res.Tables, ts)
	degrade(res, sw.failures, sw.total)
	return res, nil
}

// ---------------------------------------------------------------- E7

func (r *runner) e7() (*Result, error) {
	res := &Result{
		ID:    "E7",
		Title: "Lookahead window sensitivity (medium) — the large-instruction-window claim",
		Notes: []string{"Gains grow with the partitioning window and saturate past the cores' combined ROB reach."},
	}
	tb := stats.NewTable("Window sweep", "window", "geomean speedup")
	var sw sweep
	for _, win := range []int{64, 128, 256, 512, 1024} {
		m := config.Medium()
		m.FgSTP.Window = win
		gm := r.fgstpGeomean(res, &sw, fmt.Sprintf("win%d", win), m)
		tb.AddRowf(fmt.Sprintf("%d", win), gm)
		res.metric(fmt.Sprintf("geomean_win%d", win), gm)
	}
	res.Tables = append(res.Tables, tb)
	degrade(res, sw.failures, sw.total)
	return res, nil
}

// ---------------------------------------------------------------- E8

func (r *runner) e8() (*Result, error) {
	res := &Result{
		ID:    "E8",
		Title: "Fg-STP mechanism characterisation (medium)",
		Notes: []string{
			"Per-benchmark partition balance, replication rate, communication traffic and speculation behaviour.",
		},
	}
	tb := stats.NewTable("Characterisation",
		"benchmark", "core1 frac", "replicated", "remote deps", "comm/kinst",
		"squash/kinst", "bpred acc")
	m := config.Medium()
	ws := workloads.All()
	rows, errs := sched.MapAllCtx(r.ctx, r.jobs, ws, func(w workloads.Workload) (stats.Run, error) {
		return r.runOf(m, cmp.ModeFgSTP, w)
	})
	var failures []string
	var balSum, replSum, commSum float64
	n := 0
	for i, w := range ws {
		if errs[i] != nil {
			fc := failCell(errs[i])
			tb.AddRow(w.Name, fc, fc, fc, fc, fc, fc)
			failures = append(failures, fmt.Sprintf("%s: %v", w.Name, errs[i]))
			continue
		}
		// An Fg-STP run commits the whole trace: Insts is its length.
		g := rows[i]
		sq := g.Get("squashes") / float64(g.Insts) * 1000
		tb.AddRowf(w.Name, g.Get("steer_core1_frac"), g.Get("replicated_frac"),
			g.Get("remote_dep_frac"), g.Get("comm_per_kinst"), sq,
			g.Get("bpred_accuracy"))
		balSum += g.Get("steer_core1_frac")
		replSum += g.Get("replicated_frac")
		commSum += g.Get("comm_per_kinst")
		n++
	}
	res.Tables = append(res.Tables, tb)
	if n > 0 {
		res.metric("mean_core1_frac", balSum/float64(n))
		res.metric("mean_replicated_frac", replSum/float64(n))
		res.metric("mean_comm_per_kinst", commSum/float64(n))
	}
	degrade(res, failures, len(ws))
	return res, nil
}

// ---------------------------------------------------------------- E9

func (r *runner) e9() (*Result, error) {
	res := &Result{
		ID:    "E9",
		Title: "Memory-dependence predictor sensitivity (medium)",
		Notes: []string{
			"Conservative waits for all remote store addresses; perfect is an oracle; sized load-wait tables in between.",
		},
	}
	tb := stats.NewTable("Load-wait table sweep", "predictor", "geomean speedup")
	variants := []struct {
		name   string
		mutate func(*config.FgSTP)
	}{
		{"conservative", func(f *config.FgSTP) { f.DepSpeculation = false }},
		{"256-entry", func(f *config.FgSTP) { f.DepPredBits = 8 }},
		{"2k-entry", func(f *config.FgSTP) { f.DepPredBits = 11 }},
		{"store-sets", func(f *config.FgSTP) { f.UseStoreSets = true }},
		{"perfect", func(f *config.FgSTP) { f.DepPredBits = -1 }},
	}
	var sw sweep
	for _, v := range variants {
		m := config.Medium()
		v.mutate(&m.FgSTP)
		gm := r.fgstpGeomean(res, &sw, v.name, m)
		tb.AddRowf(v.name, gm)
		res.metric("geomean_"+v.name, gm)
	}
	res.Tables = append(res.Tables, tb)
	degrade(res, sw.failures, sw.total)
	return res, nil
}

// ---------------------------------------------------------------- E10

func (r *runner) e10() (*Result, error) {
	res := &Result{
		ID:    "E10",
		Title: "SPECint vs SPECfp breakdown (both machines)",
	}
	tb := stats.NewTable("Geomean speedups by suite",
		"machine", "suite", "fgstp/single", "fgstp/fusion")
	var failures []string
	total := 0
	for _, m := range []config.Machine{config.Small(), config.Medium()} {
		for _, suite := range []string{"int", "fp"} {
			ws := workloads.Suite(suite)
			runs, fails := r.gridOutcomes(m, ws, cmp.Modes())
			failures = append(failures, fails...)
			total += len(ws) * len(cmp.Modes())
			var spS, spF []float64
			for i := range ws {
				os, of, og := runs[i][cmp.ModeSingle], runs[i][cmp.ModeFusion], runs[i][cmp.ModeFgSTP]
				if os.err != nil || of.err != nil || og.err != nil {
					continue
				}
				s, f, g := os.run, of.run, og.run
				spS = append(spS, stats.Speedup(&s, &g))
				spF = append(spF, stats.Speedup(&f, &g))
			}
			gmS := notedGeomean(res, fmt.Sprintf("%s/%s fgstp/single", m.Name, suite), spS)
			gmF := notedGeomean(res, fmt.Sprintf("%s/%s fgstp/fusion", m.Name, suite), spF)
			tb.AddRowf(m.Name, suite, gmS, gmF)
			res.metric(fmt.Sprintf("%s_%s_fgstp_vs_single", m.Name, suite), gmS)
			res.metric(fmt.Sprintf("%s_%s_fgstp_vs_fusion", m.Name, suite), gmF)
		}
	}
	res.Tables = append(res.Tables, tb)
	degrade(res, failures, total)
	return res, nil
}

// sweep accumulates a sensitivity sweep's failure lines and attempted
// cell count over its fgstpGeomean points.
type sweep struct {
	failures []string
	total    int
}

// fgstpGeomean runs every workload in single and fgstp mode on machine
// m (one job per workload, fanned out over the pool; failures never
// abort the batch) and returns the geomean speedup over the workloads
// that succeeded. Each failure adds a "label/workload: error" line to
// sw; non-positive speedup cells excluded from the geomean are noted on
// res under label.
func (r *runner) fgstpGeomean(res *Result, sw *sweep, label string, m config.Machine) float64 {
	ws := workloads.All()
	sp, errs := sched.MapAllCtx(r.ctx, r.jobs, ws, func(w workloads.Workload) (float64, error) {
		return r.speedup(m, w)
	})
	sw.total += len(ws)
	var ok []float64
	for i, w := range ws {
		if errs[i] != nil {
			sw.failures = append(sw.failures, fmt.Sprintf("%s/%s: %v", label, w.Name, errs[i]))
			continue
		}
		ok = append(ok, sp[i])
	}
	return notedGeomean(res, label, ok)
}
