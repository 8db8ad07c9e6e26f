//go:build fgstpperf_trace

// Command traced is the benchmark's traced run: it produces the
// per-layer metrics of one workload. It first repeats the workload's
// untraced black-box run, then performs the same work in-process,
// calling each layer's public functions in the order the CLI or daemon
// does and wrapping each call in a span. Its rendered outputs must hash
// to the same golden digests, and its wall-clock minus the untraced
// one is the tracing overhead. The spans are written as Chrome
// trace-event JSON under .bench_build/traces.
//
// It imports the simulator's internal packages, so it sits behind the
// fgstpperf_trace build tag: fgstpperf builds it only for --trace 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/bench/internal/perf"
	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/hotblock"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runDeadline leaves the traced run, untraced pass included, inside the
// 180 s a benchmark run may take.
const runDeadline = 160 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		root     = flag.String("root", ".", "repository root")
		tmp      = flag.String("tmp", "", "the run's temporary directory, holding the built commands in bin/")
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "seed of the workload's inputs")
	)
	flag.Parse()
	if err := traced(*root, *tmp, *workload, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "fgstpperf traced:", err)
		return 1
	}
	return 0
}

// pass is what the traced pass of a workload reports back.
type pass struct {
	attempted, failed int
	wall              time.Duration
}

func (p *pass) check(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		fmt.Fprintln(os.Stderr, "fgstpperf traced: FAIL", err)
	}
}

func traced(root, tmp, workload string, seed uint64) error {
	golden, err := perf.LoadGolden(root)
	if err != nil {
		return err
	}
	env := perf.Env{Bin: filepath.Join(tmp, "bin"), Tmp: tmp, Golden: golden, Seed: seed}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	untraced, err := perf.Run(ctx, workload, env)
	if err != nil {
		return err
	}
	for _, e := range untraced.Errors {
		fmt.Fprintln(os.Stderr, "fgstpperf traced: untraced pass FAIL", e)
	}

	vals := make(map[string]float64, len(perf.PerLayer))
	for _, d := range perf.PerLayer {
		vals[d.Name] = 0
	}
	rec := perf.NewRecorder()
	var p pass
	switch workload {
	case perf.PaperEvalName:
		p = paperEval(ctx, rec, golden, vals)
	case perf.WholeProgramName:
		p = wholeProgram(ctx, rec, golden, vals)
	case perf.FgstpdMixedName:
		env.Rec = rec
		p = fgstpdMixed(ctx, env, vals)
	}
	vals["trace.wall_s"] = p.wall.Seconds()
	vals["trace.untraced_wall_s"] = untraced.Wall.Seconds()
	vals["trace.overhead_s"] = (p.wall - untraced.Wall).Seconds()

	if err := writeSpans(root, workload, seed, rec); err != nil {
		return err
	}
	res, err := perf.NewResult(perf.PerLayer, vals, untraced.Attempted+p.attempted, untraced.Failed+p.failed)
	if err != nil {
		return err
	}
	return res.Write(os.Stdout)
}

func writeSpans(root, workload string, seed uint64, rec *perf.Recorder) error {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "fgstpperf traced: spans written to", path)
	return nil
}

// engine accounts the simulation cells of a traced pass: one span per
// cmp run, and per mode the busy time, committed instructions and
// simulated cycles, plus the merged hot-block telemetry. Cells run on
// parallel workers, hence the lock.
type engine struct {
	rec    *perf.Recorder
	mu     sync.Mutex
	busy   map[cmp.Mode]time.Duration
	insts  map[cmp.Mode]uint64
	cycles map[cmp.Mode]uint64
	cells  int
	hb     hotblock.Counters
}

func newEngine(rec *perf.Recorder) *engine {
	return &engine{rec: rec, busy: map[cmp.Mode]time.Duration{},
		insts: map[cmp.Mode]uint64{}, cycles: map[cmp.Mode]uint64{}}
}

// cell times one simulation run under parent; fn runs it with the
// hot-block counters it is handed.
func (e *engine) cell(parent int, mode cmp.Mode, workload, machine string,
	fn func(*hotblock.Counters) (stats.Run, error)) (stats.Run, error) {
	var hb hotblock.Counters
	id := e.rec.Start("cmp.Run", parent, map[string]string{"mode": string(mode), "workload": workload, "machine": machine})
	t0 := time.Now()
	run, err := fn(&hb)
	d := time.Since(t0)
	e.rec.End(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cells++
	e.busy[mode] += d
	e.insts[mode] += run.Insts
	e.cycles[mode] += run.Cycles
	e.hb.Merge(hb)
	return run, err
}

// report fills the cmp.* and hotblock.* metrics.
func (e *engine) report(vals map[string]float64) {
	var cycles uint64
	for _, m := range cmp.Modes() {
		pre := "cmp." + string(m)
		ns := float64(e.busy[m].Nanoseconds())
		vals[pre+".busy_s"] = e.busy[m].Seconds()
		vals[pre+".ns_per_inst"] = ratio(ns, float64(e.insts[m]))
		vals[pre+".ns_per_cycle"] = ratio(ns, float64(e.cycles[m]))
		cycles += e.cycles[m]
	}
	vals["cmp.cells"] = float64(e.cells)
	vals["hotblock.replayed_cycle_frac"] = ratio(float64(e.hb.ReplayedCycles), float64(cycles))
	hotblockFracs(vals, e.hb.Replays, e.hb.InvalidationsPrecond, e.hb.Templates, e.hb.AbortsSpanLimit+e.hb.AbortsUnsteady)
}

// hotblockFracs fills the replay-precondition pass rate (replays over
// replay attempts) and the capture abort rate (aborted over attempted
// captures).
func hotblockFracs(vals map[string]float64, replays, precondFails, templates, aborts uint64) {
	vals["hotblock.precond_pass_frac"] = ratio(float64(replays), float64(replays+precondFails))
	vals["hotblock.capture_abort_frac"] = ratio(float64(aborts), float64(templates+aborts))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocSubset is the fixed set of kernels whose cells are re-run
// serially to count allocations per mode: a streaming loop (lbm), a
// pointer chaser (mcf) and branchy integer code (gcc).
var allocSubset = []string{"lbm", "mcf", "gcc"}

// allocsPerKinst re-runs the subset's cells one at a time on machine m
// and fills cmp.<mode>.allocs_per_kinst from runtime.MemStats deltas,
// which only attribute allocations cleanly when nothing else runs.
func allocsPerKinst(vals map[string]float64, m config.Machine, insts uint64) error {
	traces := make([]*trace.Trace, len(allocSubset))
	for i, name := range allocSubset {
		w, err := kernel(name)
		if err != nil {
			return err
		}
		traces[i] = w.Trace(insts)
	}
	for _, md := range cmp.Modes() {
		var mallocs, committed uint64
		for _, tr := range traces {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			run, err := cmp.Run(m, md, tr)
			runtime.ReadMemStats(&b)
			if err != nil {
				return fmt.Errorf("allocation pass, %s/%s/%s: %w", m.Name, tr.Name, md, err)
			}
			mallocs += b.Mallocs - a.Mallocs
			committed += run.Insts
		}
		vals["cmp."+string(md)+".allocs_per_kinst"] = ratio(float64(mallocs), float64(committed)/1000)
	}
	return nil
}

func kernel(name string) (workloads.Workload, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return w, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// captures accounts serial trace captures: time, instructions and the
// bytes each capture allocated (a runtime.MemStats delta).
type captures struct {
	d            time.Duration
	insts, bytes uint64
}

func (c *captures) capture(rec *perf.Recorder, parent int, w workloads.Workload, insts uint64) *trace.Trace {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	id := rec.Start("workloads.Trace", parent, map[string]string{"workload": w.Name})
	t0 := time.Now()
	tr := w.Trace(insts)
	c.d += time.Since(t0)
	rec.End(id)
	runtime.ReadMemStats(&b)
	c.insts += uint64(tr.Len())
	c.bytes += b.TotalAlloc - a.TotalAlloc
	return tr
}

// report fills the workloads.* metrics.
func (c *captures) report(vals map[string]float64) {
	vals["workloads.trace_s"] = c.d.Seconds()
	vals["workloads.ns_per_inst"] = ratio(float64(c.d.Nanoseconds()), float64(c.insts))
	vals["workloads.bytes_per_inst"] = ratio(float64(c.bytes), float64(c.insts))
}
