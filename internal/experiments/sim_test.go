package experiments

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/simpoint"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// simTestInterval samples simTestTrace's 8k instructions in eight
// intervals, so every mode simulates several slices.
const simTestInterval = 1_000

func simTestTrace(t *testing.T) (config.Machine, *trace.Trace) {
	t.Helper()
	m, err := config.ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	return m, w.Trace(8_000)
}

// TestSimTasksLongestFirst: the Fg-STP full run starts first, the full
// runs follow their host cost (fgstp, corefusion, single), every
// estimate comes after every full run in the same mode order, and each
// task appears exactly once.
func TestSimTasksLongestFirst(t *testing.T) {
	modes := []cmp.Mode{cmp.ModeSingle, cmp.ModeFusion, cmp.ModeFgSTP}
	want := []simTask{
		{mode: 2}, {mode: 1}, {mode: 0},
		{mode: 2, estimate: true}, {mode: 1, estimate: true}, {mode: 0, estimate: true},
	}
	if got := simTasks(modes, true); !slices.Equal(got, want) {
		t.Errorf("sampled tasks %v, want %v", got, want)
	}
	if got := simTasks(modes, false); !slices.Equal(got, want[:3]) {
		t.Errorf("unsampled tasks %v, want %v", got, want[:3])
	}
	one := []simTask{{mode: 0}, {mode: 0, estimate: true}}
	if got := simTasks([]cmp.Mode{cmp.ModeFusion}, true); !slices.Equal(got, one) {
		t.Errorf("one-mode tasks %v, want %v", got, one)
	}
}

// TestSamplerWarmsOncePerGeometry: a report's three concurrent
// estimates capture checkpoints twice — once for the per-core hierarchy
// single and Fg-STP share, once for Core Fusion's fused L1s.
func TestSamplerWarmsOncePerGeometry(t *testing.T) {
	m, tr := simTestTrace(t)
	sp := &sampler{m: m, tr: tr, p: SimpointParams{Interval: simTestInterval, Warmup: -1}}
	modes := cmp.Modes()
	ests := make([]SimEstimate, len(modes))
	_, errs := sched.MapAll(len(modes), []int{0, 1, 2}, func(i int) (struct{}, error) {
		return struct{}{}, sp.estimate(context.Background(), modes[i], &ests[i])
	})
	if err := sched.JoinErrors(errs); err != nil {
		t.Fatal(err)
	}
	if n := sp.sims.Len(); n != 2 {
		t.Fatalf("%d capture passes for %v, want 2", n, modes)
	}
}

// serialSimReport composes a sampled report the way fgstpsim and fgstpd
// did before RunSim: every full run on the pool, then each mode's
// estimate in turn from one representative choice. It is the reference
// RunSim's documents must match.
func serialSimReport(t *testing.T, m config.Machine, tr *trace.Trace, modes []cmp.Mode, format string) []byte {
	t.Helper()
	jl, err := SimJobs(m, tr, modes, "")
	if err != nil {
		t.Fatal(err)
	}
	runs, errs := sched.MapAll(1, jl, sched.Job.Run)
	reps, err := simpoint.Choose(tr, simTestInterval, DefaultSimpointK)
	if err != nil {
		t.Fatal(err)
	}
	points, err := simpoint.Slices(reps, simTestInterval, simTestInterval, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	boundaries := make([]int, len(points))
	for i, s := range points {
		boundaries[i] = s.WStart
	}
	ests := make([]SimEstimate, len(modes))
	for i, md := range modes {
		sim, err := cmp.NewSliceSim(m, md, tr, boundaries)
		if err != nil {
			t.Fatal(err)
		}
		est, err := simpoint.EstimateCPI(reps, simTestInterval, simTestInterval, tr.Len(), 1, sim.Run)
		if err != nil {
			t.Fatal(err)
		}
		ests[i] = SimEstimate{Mode: string(md), Interval: simTestInterval, Warmup: simTestInterval,
			Points: est.Points, IPC: est.IPC, IPCLow: est.IPCLow, IPCHigh: est.IPCHigh,
			SampledInsts: est.SampledInsts, TraceInsts: est.TraceInsts}
	}
	var buf bytes.Buffer
	if err := WriteSimFormatEst(&buf, format, m.Name, tr, modes, runs, errs, ests); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunSimByteIdentity: a sampled all-mode report renders
// byte-identically at 1, 2 and 4 workers, and identically to the serial
// composition it replaces, in every format.
func TestRunSimByteIdentity(t *testing.T) {
	m, tr := simTestTrace(t)
	modes := cmp.Modes()
	var reps []SimReport
	for _, jobs := range []int{1, 2, 4} {
		rep, err := RunSim(context.Background(), m, tr, modes, "", SimpointParams{Interval: simTestInterval, Warmup: -1}, jobs)
		if err != nil {
			t.Fatalf("jobs %d: %v", jobs, err)
		}
		if want := min(jobs, 2*len(modes)); rep.Tasks != 2*len(modes) || rep.Workers != want {
			t.Errorf("jobs %d: %d tasks on %d workers, want %d on %d", jobs, rep.Tasks, rep.Workers, 2*len(modes), want)
		}
		for i, e := range rep.Ests {
			if rep.Errs[i] != nil || e.Error != "" || e.Points < 2 {
				t.Fatalf("jobs %d, %s: run error %v, estimate error %q, %d points", jobs, modes[i], rep.Errs[i], e.Error, e.Points)
			}
		}
		reps = append(reps, rep)
	}
	for _, format := range []string{"json", "text", "csv"} {
		want := serialSimReport(t, m, tr, modes, format)
		for k, rep := range reps {
			var got bytes.Buffer
			if err := WriteSimFormatEst(&got, format, m.Name, tr, modes, rep.Runs, rep.Errs, rep.Ests); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s report #%d differs from the serial composition:\n--- RunSim ---\n%s\n--- serial ---\n%s", format, k, got.Bytes(), want)
			}
		}
	}
}

// lateCtx times out after its first n Err calls. On one worker the pool
// checks the context once before each task and an estimate once before
// each slice, so n = len(modes)+1 lets every full run and the first
// estimate start, then expires before that estimate's first slice.
type lateCtx struct {
	context.Context
	n atomic.Int64
}

func (c *lateCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestRunSimCancelled: a context that is done stops the report. Already
// cancelled, it runs nothing: no slice simulates, and every run and
// estimate carries the context error. Expiring after the full runs, it
// keeps their results, but no estimate completes, and RunSim still
// returns the context error, so no caller publishes a late report.
func TestRunSimCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := simpoint.EstimateCPI([]simpoint.Representative{{Start: 0, Weight: 1}}, 10, 0, 100, 1,
		ctxSlices(ctx, func(int, int, int) (uint64, uint64, error) { ran++; return 10, 10, nil }))
	if !errors.Is(err, context.Canceled) || ran != 0 {
		t.Fatalf("cancelled estimate: error %v after %d slices, want context.Canceled after none", err, ran)
	}

	m, tr := simTestTrace(t)
	modes := cmp.Modes()
	p := SimpointParams{Interval: simTestInterval, Warmup: -1}
	rep, err := RunSim(ctx, m, tr, modes, "", p, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled report: error %v, want context.Canceled", err)
	}
	for i := range modes {
		if !errors.Is(rep.Errs[i], context.Canceled) || rep.Ests[i].Error != context.Canceled.Error() {
			t.Errorf("%s: run error %v, estimate error %q; want both context canceled", modes[i], rep.Errs[i], rep.Ests[i].Error)
		}
	}

	late := &lateCtx{Context: context.Background()}
	late.n.Store(int64(len(modes) + 1))
	rep, err = RunSim(late, m, tr, modes, "", p, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("late report: error %v, want context.DeadlineExceeded", err)
	}
	for i := range modes {
		if rep.Errs[i] != nil || rep.Runs[i].Insts == 0 {
			t.Errorf("%s: full run lost to a deadline that passed after it: %v", modes[i], rep.Errs[i])
		}
		if e := rep.Ests[i]; e.Error != context.DeadlineExceeded.Error() || e.Points != 0 {
			t.Errorf("%s: estimate error %q with %d points, want the deadline error and none", modes[i], e.Error, e.Points)
		}
	}
}
