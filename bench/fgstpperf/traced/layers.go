//go:build fgstpperf_trace

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/bench/internal/perf"
	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/hotblock"
	"repro/internal/resultcache"
	"repro/internal/sched"
	"repro/internal/simpoint"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// jobs is the worker count of every fan-out, as in the timed run.
const jobs = 2

// paperEvalInsts is the per-cell budget of the paper-eval request.
const paperEvalInsts = 100_000

// paperEval performs `fgstpbench -experiment all -insts 100000 -jobs 2
// -format json` in-process: one session over E1..E10 with every cell
// timed through the session's cell-runner seam, then the export. The
// serial passes for allocations and trace capture run before the timed
// pass.
func paperEval(ctx context.Context, rec *perf.Recorder, golden perf.Golden, vals map[string]float64) pass {
	var p pass
	if err := allocsPerKinst(vals, config.Medium(), paperEvalInsts); err != nil {
		p.check(err)
	}
	var c captures
	for _, name := range perf.Corpus {
		w, err := kernel(name)
		if err != nil {
			p.check(err)
			continue
		}
		c.capture(rec, 0, w, paperEvalInsts)
	}
	c.report(vals)

	eng := newEngine(rec)
	t0 := time.Now()
	sess := experiments.NewSession(paperEvalInsts, jobs)
	var cur atomic.Int64 // span of the experiment running now
	sess.SetCellRunner(func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
		return eng.cell(int(cur.Load()), mode, w.Name, m.Name, func(hb *hotblock.Counters) (stats.Run, error) {
			return cmp.RunOpts(m, mode, tr, cmp.Options{HotBlock: hb})
		})
	})
	var runErr error
	var results []*experiments.Result
	for _, id := range experiments.IDs() {
		eid := rec.Start("experiments.Run", 0, map[string]string{"experiment": id})
		cur.Store(int64(eid))
		res, err := sess.RunCtx(ctx, id)
		rec.End(eid)
		if err == nil && res.Failed() {
			err = fmt.Errorf("%s: %d failed cells", id, len(res.Failures))
		}
		if err != nil {
			runErr = errors.Join(runErr, err)
			continue
		}
		results = append(results, res)
	}
	rid := rec.Start("export.WriteFormat", 0, nil)
	var doc bytes.Buffer
	err := experiments.WriteFormat(&doc, "json", paperEvalInsts, results)
	rec.End(rid)
	p.wall = time.Since(t0)
	p.check(errors.Join(runErr, err, golden.Check(perf.PaperEval(), doc.Bytes())))

	eng.report(vals)
	spans := rec.Spans()
	var self, span time.Duration
	for _, e := range rec.Named("experiments.Run") {
		self += perf.SelfTime(e.Interval(), perf.Intervals(perf.ChildrenOf(spans, e.ID)))
		span += e.End - e.Start
	}
	vals["experiments.self_s"] = self.Seconds()
	vals["experiments.cells_simulated"] = float64(eng.cells)
	vals["sched.worker_util"] = ratio(float64(perf.Busy(rec.Named("cmp.Run"))), float64(jobs*span))
	vals["export.render_s"] = perf.Busy(rec.Named("export.WriteFormat")).Seconds()
	vals["export.bytes"] = float64(doc.Len())
	return p
}

// wholeProgram performs the 58 `fgstpsim -insts 2000000 -simpoint 10000
// -jobs 2 -format json` runs in-process, in fgstpsim's order: capture,
// the per-mode fan-out, the sampled estimates, the export.
func wholeProgram(ctx context.Context, rec *perf.Recorder, golden perf.Golden, vals map[string]float64) pass {
	var p pass
	if err := allocsPerKinst(vals, config.Medium(), perf.WholeProgramInsts); err != nil {
		p.check(err)
	}
	eng := newEngine(rec)
	var c captures
	var docs [][]byte
	var covered uint64
	modes := cmp.Modes()
	t0 := time.Now()
	for _, r := range perf.WholeProgram() {
		if ctx.Err() != nil {
			p.check(ctx.Err())
			continue
		}
		doc, cov, err := wholeRun(rec, eng, &c, r, modes)
		covered += cov
		if err == nil {
			err = golden.Check(r.Request(), doc)
		}
		p.check(err)
		docs = append(docs, doc)
	}
	p.wall = time.Since(t0)

	eng.report(vals)
	c.report(vals)
	if acc, err := perf.SampledAccuracyOf(docs); err != nil {
		p.check(err)
	} else {
		vals["simpoint.sampled_frac"] = acc.SampledFrac
		vals["simpoint.ipc_err_pct"] = acc.IPCErrPct
		vals["simpoint.ci_miss_frac"] = acc.CIMissFrac
	}
	capture := perf.Busy(rec.Named("checkpoint.Capture"))
	vals["simpoint.choose_s"] = perf.Busy(rec.Named("simpoint.Choose")).Seconds()
	vals["simpoint.estimate_s"] = perf.Busy(rec.Named("simpoint.EstimateCPI")).Seconds()
	vals["checkpoint.capture_s"] = capture.Seconds()
	vals["checkpoint.ns_per_inst"] = ratio(float64(capture.Nanoseconds()), float64(covered))
	fanout := perf.Busy(rec.Named("sched.RunJobsAll"))
	vals["sched.worker_util"] = ratio(float64(perf.Busy(rec.Named("cmp.Run"))), float64(jobs*fanout))
	vals["export.render_s"] = perf.Busy(rec.Named("export.WriteSimFormatEst")).Seconds()
	for _, d := range docs {
		vals["export.bytes"] += float64(len(d))
	}
	return p
}

// wholeRun is one fgstpsim invocation. It returns the rendered document
// and how many trace instructions its checkpoint passes walked.
func wholeRun(rec *perf.Recorder, eng *engine, c *captures, r perf.WholeRun, modes []cmp.Mode) ([]byte, uint64, error) {
	id := rec.Start("fgstpsim", 0, map[string]string{"workload": r.Workload, "machine": r.Machine})
	defer rec.End(id)
	m, err := config.ByName(r.Machine)
	if err != nil {
		return nil, 0, err
	}
	w, err := kernel(r.Workload)
	if err != nil {
		return nil, 0, err
	}
	tr := c.capture(rec, id, w, perf.WholeProgramInsts)
	jl, err := experiments.SimJobs(m, tr, modes, "")
	if err != nil {
		return nil, 0, err
	}
	fid := rec.Start("sched.RunJobsAll", id, nil)
	runs, errs := sched.MapAll(jobs, jl, func(j sched.Job) (stats.Run, error) {
		return eng.cell(fid, j.Mode, r.Workload, r.Machine, func(hb *hotblock.Counters) (stats.Run, error) {
			j.HotBlock = hb
			return j.Run()
		})
	})
	rec.End(fid)
	ests, covered := simpointEstimates(rec, id, m, tr, modes)
	xid := rec.Start("export.WriteSimFormatEst", id, nil)
	var doc bytes.Buffer
	err = experiments.WriteSimFormatEst(&doc, "json", m.Name, tr, modes, runs, errs, ests)
	rec.End(xid)
	return doc.Bytes(), covered, errors.Join(append(errs, err)...)
}

// simpointEstimates is experiments.SimpointEstimates at fgstpsim's
// parameters, split at its layer calls: representative choice, then per
// mode the checkpoint capture pass and the sampled estimate. It also
// returns the trace instructions the capture passes walked.
func simpointEstimates(rec *perf.Recorder, parent int, m config.Machine, tr *trace.Trace, modes []cmp.Mode) ([]experiments.SimEstimate, uint64) {
	const interval = perf.WholeProgramSimpoint
	const warmup = interval // fgstpsim's -1: one interval
	out := make([]experiments.SimEstimate, len(modes))
	for i, md := range modes {
		out[i] = experiments.SimEstimate{Mode: string(md), Interval: interval, Warmup: warmup}
	}
	cid := rec.Start("simpoint.Choose", parent, nil)
	reps, err := simpoint.Choose(tr, interval, experiments.DefaultSimpointK)
	var slices []simpoint.Slice
	if err == nil {
		slices, err = simpoint.Slices(reps, interval, warmup, tr.Len())
	}
	rec.End(cid)
	if err != nil {
		for i := range out {
			out[i].Error = err.Error()
		}
		return out, 0
	}
	boundaries := make([]int, len(slices))
	last := 0
	for i, s := range slices {
		boundaries[i] = s.WStart
		last = max(last, s.WStart)
	}
	var covered uint64
	for i, md := range modes {
		kid := rec.Start("checkpoint.Capture", parent, map[string]string{"mode": string(md)})
		sim, err := cmp.NewSliceSim(m, md, tr, boundaries)
		rec.End(kid)
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		covered += uint64(last)
		eid := rec.Start("simpoint.EstimateCPI", parent, map[string]string{"mode": string(md)})
		est, err := simpoint.EstimateCPI(reps, interval, warmup, tr.Len(), jobs, sim.Run)
		rec.End(eid)
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		out[i].Points = est.Points
		out[i].IPC = est.IPC
		out[i].IPCLow = est.IPCLow
		out[i].IPCHigh = est.IPCHigh
		out[i].SampledInsts = est.SampledInsts
		out[i].TraceInsts = est.TraceInsts
	}
	return out, covered
}

// fgstpdMixed repeats the black-box daemon run with client spans, reads
// the server layer from /metricz, and then re-times, outside the timed
// pass, what a cache hit costs before the lookup: trace capture, trace
// serialisation and the content hash of every sim key.
func fgstpdMixed(ctx context.Context, env perf.Env, vals map[string]float64) pass {
	var p pass
	o, err := perf.Run(ctx, perf.FgstpdMixedName, env)
	if err != nil {
		p.check(err)
		return p
	}
	p.attempted, p.failed, p.wall = o.Attempted, o.Failed, o.Wall
	for _, e := range o.Errors {
		fmt.Fprintln(os.Stderr, "fgstpperf traced: FAIL", e)
	}
	mz := o.Metricz
	vals["server.doc_hit_frac"] = ratio(mz["fgstpd_cache_hits"], mz["fgstpd_cache_hits"]+mz["fgstpd_cache_misses"])
	vals["server.cell_hit_frac"] = ratio(mz["fgstpd_cell_hits"], mz["fgstpd_cell_hits"]+mz["fgstpd_cell_misses"])
	vals["server.queue_depth_peak"] = mz["fgstpd_queue_depth_peak"]
	hotblockFracs(vals, uint64(mz["hotblock_replays"]), uint64(mz["hotblock_invalidations_precond"]),
		uint64(mz["hotblock_templates"]), uint64(mz["hotblock_aborts_span_limit"]+mz["hotblock_aborts_unsteady"]))
	for _, k := range []string{"sim_hits", "sim_misses", "unit_hits", "unit_misses",
		"sim_hit_p50_ms", "sim_miss_p50_ms", "sim_p90_ms", "sweep_unit_p50_ms", "sweep_unit_p90_ms"} {
		vals["server."+k] = o.Info[k]
	}
	p.check(hitKeys(env.Rec, vals))
	return p
}

// hitKeys times, per sim key, the work fgstpd does for a request before
// its cache lookup (SimRequest.validate and cacheKey): capture the
// trace, serialise it and hash it with the machine config.
func hitKeys(rec *perf.Recorder, vals map[string]float64) error {
	var c captures
	var ms []float64
	for _, k := range perf.SimKeys() {
		id := rec.Start("server.hitKey", 0, map[string]string{"key": k.Request().Key()})
		t0 := time.Now()
		w, err := kernel(k.Workload)
		if err != nil {
			return err
		}
		m, err := config.ByName(k.Machine)
		if err != nil {
			return err
		}
		tr := c.capture(rec, id, w, k.Insts)
		cfg, err := m.ToJSON()
		if err != nil {
			return err
		}
		var tb bytes.Buffer
		if err := tr.Save(&tb); err != nil {
			return err
		}
		_ = resultcache.Key(cmp.EngineVersion, cfg, tb.Bytes(),
			"sim", k.Mode, strconv.FormatUint(k.Insts, 10), "json", "", "0")
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		rec.End(id)
	}
	vals["server.hit_key_ms"] = perf.Median(ms)
	c.report(vals)
	return nil
}
