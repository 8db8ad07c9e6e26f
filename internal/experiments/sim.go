package experiments

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SimSchemaVersion identifies the fgstpsim machine-readable export
// format (the bench tool has its own, SchemaVersion). The writers
// below are the single rendering path for it: fgstpsim and the fgstpd
// daemon both call them, which is what keeps server responses
// byte-identical to CLI output.
const SimSchemaVersion = "fgstp.sim/1"

// SimJobs builds the per-mode job list of one simulation report: one
// job per mode over the shared read-only trace, tagged by mode so
// failures render identically everywhere. A non-empty inject arms the
// named fault on the Fg-STP mode's job (the other modes have no
// inter-core channel to fault).
func SimJobs(m config.Machine, tr *trace.Trace, modes []cmp.Mode, inject string) ([]sched.Job, error) {
	jl := make([]sched.Job, len(modes))
	for i, md := range modes {
		jl[i] = sched.Job{Machine: m, Mode: md, Trace: tr, Tag: string(md)}
		if md != cmp.ModeFgSTP {
			continue
		}
		switch inject {
		case "":
		case "livelock":
			jl[i].Faults = faults.ChannelStall(0)
		case "panic":
			jl[i].Faults = faults.ChannelPanic(0)
		default:
			return nil, fmt.Errorf("unknown fault %q for injection (want \"livelock\" or \"panic\")", inject)
		}
	}
	return jl, nil
}

// SimReport is one simulation report before rendering. Runs, Errs and
// Ests are indexed like the modes it was run for: the full run or its
// error and, when sampling was requested (Ests is nil otherwise), the
// sampled estimate. The remaining fields describe how the report used
// its worker pool; they never enter a rendered document.
type SimReport struct {
	Runs []stats.Run
	Errs []error
	Ests []SimEstimate

	// Pool's tasks are a full run per mode, plus an estimate per mode
	// when sampling.
	Pool
}

// Pool describes how one task list used its worker pool: Tasks tasks on
// Workers workers, Busy summing the tasks' run times and Wall spanning
// the whole list.
type Pool struct {
	Tasks   int
	Workers int
	Busy    time.Duration
	Wall    time.Duration
}

// Utilization is the share of the pool's worker time spent in tasks:
// Busy over Workers × Wall.
func (p Pool) Utilization() float64 {
	if p.Workers == 0 || p.Wall <= 0 {
		return 0
	}
	return float64(p.Busy) / (float64(p.Workers) * float64(p.Wall))
}

// mapTimed is sched.MapAllCtx that also reports how the pool was used.
func mapTimed[T, R any](ctx context.Context, jobs int, items []T, fn func(T) (R, error)) ([]R, []error, Pool) {
	p := Pool{Tasks: len(items), Workers: min(sched.Workers(jobs), len(items))}
	var busy atomic.Int64
	t0 := time.Now()
	out, errs := sched.MapAllCtx(ctx, jobs, items, func(t T) (R, error) {
		defer func(start time.Time) { busy.Add(int64(time.Since(start))) }(time.Now())
		return fn(t)
	})
	p.Wall, p.Busy = time.Since(t0), time.Duration(busy.Load())
	return out, errs, p
}

// RunSim runs one simulation report, the single entry point of fgstpsim
// and fgstpd's /v1/sim: the full run of every mode over the shared
// trace (the SimJobs jobs, so inject, failure tags and panic
// containment are theirs) and, when p.Interval > 0, every mode's
// checkpointed SimPoint estimate. All of them form one task list on one
// pool of jobs workers (<= 0 picks GOMAXPROCS), started longest first
// (see simTasks). Every result lands at its mode's index and an
// estimate computes the same numbers at any pool size, so the rendered
// report is byte-identical for any jobs. A failed full run or estimate
// is recorded at its index while the other tasks run on.
//
// The error is SimJobs' for an unknown inject, or ctx's once ctx is
// done: tasks not yet started are then skipped, estimates stop between
// slices, and the report must not be published.
func RunSim(ctx context.Context, m config.Machine, tr *trace.Trace, modes []cmp.Mode, inject string, p SimpointParams, jobs int) (SimReport, error) {
	jl, err := SimJobs(m, tr, modes, inject)
	if err != nil {
		return SimReport{}, err
	}
	rep := SimReport{
		Runs: make([]stats.Run, len(modes)),
		Errs: make([]error, len(modes)),
	}
	var sp *sampler
	if p.Interval > 0 {
		sp = &sampler{m: m, tr: tr, p: p}
		rep.Ests = make([]SimEstimate, len(modes))
		for i, md := range modes {
			rep.Ests[i] = SimEstimate{Mode: string(md), Interval: p.Interval, Warmup: p.warmup()}
		}
	}
	tasks := simTasks(modes, sp != nil)
	var errs []error
	_, errs, rep.Pool = mapTimed(ctx, jobs, tasks, func(t simTask) (struct{}, error) {
		if t.estimate {
			return struct{}{}, sp.estimate(ctx, modes[t.mode], &rep.Ests[t.mode])
		}
		var err error
		rep.Runs[t.mode], err = jl[t.mode].Run()
		return struct{}{}, err
	})
	for k, t := range tasks {
		switch {
		case errs[k] == nil:
		case t.estimate:
			rep.Ests[t.mode].Error = errs[k].Error()
		default:
			rep.Errs[t.mode] = errs[k]
		}
	}
	return rep, ctx.Err()
}

// simTask is one task of a report's pool: the full run of modes[mode],
// or its sampled estimate.
type simTask struct {
	mode     int
	estimate bool
}

// simTasks orders a report's tasks longest first, so that on a small
// pool the slowest task starts at once and the others fill the
// remaining workers around it instead of queueing behind it. The full
// runs come first, costliest mode first (see hostCostRank); the
// estimates, each a fraction of its full run, follow in the same mode
// order. The order is fixed by mode alone and decides only when a task
// starts, never what it computes.
func simTasks(modes []cmp.Mode, sampled bool) []simTask {
	order := make([]int, len(modes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return hostCostRank(modes[order[a]]) < hostCostRank(modes[order[b]])
	})
	tasks := make([]simTask, 0, 2*len(modes))
	for _, i := range order {
		tasks = append(tasks, simTask{mode: i})
	}
	if sampled {
		for _, i := range order {
			tasks = append(tasks, simTask{mode: i, estimate: true})
		}
	}
	return tasks
}

// hostCostRank ranks modes by host time per simulated instruction,
// costliest first. The Fg-STP pair ticks two cores and the channel
// between them; on the whole-program benchmark it costs about 2.3×
// Core Fusion's one wide core and 3.5× single's one narrow core.
func hostCostRank(md cmp.Mode) int {
	switch md {
	case cmp.ModeFgSTP:
		return 0
	case cmp.ModeFusion:
		return 1
	default:
		return 2
	}
}

// writeSimJSON emits the runs as one fgstp.sim/1 JSON document; failed
// modes carry an error string instead of a run. Sampled estimates go in
// a trailing simpoint block; with none the field is omitted entirely,
// which keeps non-sampled runs stable across the schema's life.
func writeSimJSON(w io.Writer, machine string, tr *trace.Trace, modes []cmp.Mode, runs []stats.Run, errs []error, ests []SimEstimate) error {
	type modeResult struct {
		Mode  string     `json:"mode"`
		Error string     `json:"error,omitempty"`
		Run   *stats.Run `json:"run,omitempty"`
	}
	doc := struct {
		Schema   string        `json:"schema"`
		Workload string        `json:"workload"`
		Machine  string        `json:"machine"`
		Insts    int           `json:"insts"`
		Results  []modeResult  `json:"results"`
		Simpoint []SimEstimate `json:"simpoint,omitempty"`
	}{Schema: SimSchemaVersion, Workload: tr.Name, Machine: machine, Insts: tr.Len(), Simpoint: ests}
	for i, md := range modes {
		mr := modeResult{Mode: string(md)}
		if errs[i] != nil {
			mr.Error = errs[i].Error()
		} else {
			mr.Run = &runs[i]
		}
		doc.Results = append(doc.Results, mr)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// writeSimCSV emits one summary record per mode plus one record per
// metric, mirroring the bench tool's flat-record CSV shape, then one
// "simpoint" record per sampled estimate.
func writeSimCSV(w io.Writer, modes []cmp.Mode, runs []stats.Run, errs []error, ests []SimEstimate) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"schema", SimSchemaVersion}); err != nil {
		return err
	}
	for i, md := range modes {
		if errs[i] != nil {
			if err := cw.Write([]string{string(md), "error", errs[i].Error()}); err != nil {
				return err
			}
			continue
		}
		r := &runs[i]
		rec := []string{string(md), "summary",
			strconv.FormatUint(r.Cycles, 10), strconv.FormatUint(r.Insts, 10),
			strconv.FormatFloat(r.IPC(), 'g', -1, 64)}
		if err := cw.Write(rec); err != nil {
			return err
		}
		for _, s := range r.Metrics.Sorted() {
			rec := []string{string(md), "metric", s.Name,
				strconv.FormatFloat(s.Value, 'g', -1, 64)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	for i := range ests {
		e := &ests[i]
		if e.Error != "" {
			if err := cw.Write([]string{e.Mode, "simpoint", "error", e.Error}); err != nil {
				return err
			}
			continue
		}
		rec := []string{e.Mode, "simpoint",
			strconv.Itoa(e.Interval), strconv.Itoa(e.Warmup), strconv.Itoa(e.Points),
			strconv.FormatFloat(e.IPC, 'g', -1, 64),
			strconv.FormatFloat(e.IPCLow, 'g', -1, 64),
			strconv.FormatFloat(e.IPCHigh, 'g', -1, 64),
			strconv.FormatUint(e.SampledInsts, 10)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeSimText renders the human-readable report: one block per mode
// (FAILED line for a failed mode), when several modes ran the speedup
// comparison against the first, and a trailing sampled-estimates block
// when there are estimates.
func writeSimText(w io.Writer, modes []cmp.Mode, runs []stats.Run, errs []error, ests []SimEstimate) error {
	for i := range runs {
		if errs[i] != nil {
			if _, err := fmt.Fprintf(w, "[%s] FAILED: %v\n\n", modes[i], errs[i]); err != nil {
				return err
			}
			continue
		}
		r := &runs[i]
		if _, err := fmt.Fprintf(w, "[%s] cycles=%d insts=%d IPC=%.3f\n", r.Mode, r.Cycles, r.Insts, r.IPC()); err != nil {
			return err
		}
		for _, s := range r.Metrics.Sorted() {
			if _, err := fmt.Fprintf(w, "    %-24s %.4f\n", s.Name, s.Value); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if len(runs) > 1 && errs[0] == nil {
		if _, err := fmt.Fprintln(w, "speedups:"); err != nil {
			return err
		}
		base := &runs[0]
		for i := 1; i < len(runs); i++ {
			if errs[i] != nil {
				if _, err := fmt.Fprintf(w, "  %-12s over %-8s FAIL\n", modes[i], base.Mode); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "  %-12s over %-8s %.3fx\n",
				runs[i].Mode, base.Mode, stats.Speedup(base, &runs[i])); err != nil {
				return err
			}
		}
	}
	if len(ests) > 0 {
		if _, err := fmt.Fprintf(w, "\nsampled estimates (interval=%d warmup=%d):\n",
			ests[0].Interval, ests[0].Warmup); err != nil {
			return err
		}
		for i := range ests {
			e := &ests[i]
			if e.Error != "" {
				if _, err := fmt.Fprintf(w, "  %-12s FAILED: %s\n", e.Mode, e.Error); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "  %-12s IPC=%.3f ci=[%.3f, %.3f] points=%d sampled=%d/%d\n",
				e.Mode, e.IPC, e.IPCLow, e.IPCHigh, e.Points, e.SampledInsts, e.TraceInsts); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSimFormatEst renders a simulation report in the named format
// ("text", "json" or "csv") to w, with its sampled estimates, if any
// (nil for a report without sampling).
func WriteSimFormatEst(w io.Writer, format, machine string, tr *trace.Trace, modes []cmp.Mode, runs []stats.Run, errs []error, ests []SimEstimate) error {
	switch format {
	case "text":
		return writeSimText(w, modes, runs, errs, ests)
	case "json":
		return writeSimJSON(w, machine, tr, modes, runs, errs, ests)
	case "csv":
		return writeSimCSV(w, modes, runs, errs, ests)
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", format)
	}
}
