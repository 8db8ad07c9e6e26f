// Package sched is the deterministic worker-pool scheduler of the
// simulation harness. The Fg-STP evaluation is hundreds of independent
// trace-driven simulations (workload × machine × mode × sweep point);
// sched fans them out over GOMAXPROCS goroutines while keeping every
// observable output byte-identical to a serial run:
//
//   - Results are collected in submission order, so tables and geomeans
//     aggregate exactly as the serial loops did.
//   - Each simulation is a pure function of (machine, mode, trace):
//     traces are immutable after capture (see internal/trace) and every
//     timing model allocates its own state per run, so concurrent jobs
//     share nothing but read-only inputs.
//   - On error, the failure at the lowest submission index is the one
//     returned, and outstanding (not yet started) work is cancelled.
//     MapAll is the collect-all-errors variant: every item runs and
//     every failure is reported, in submission order.
//   - Callbacks execute under recover: a panicking simulation becomes a
//     structured *PanicError instead of killing the process, and its
//     sibling jobs complete normally.
//
// Job is the concrete simulation unit; Map is the generic fan-out
// primitive the experiment harness builds its job lists on; Cache is
// the single-flight memoisation used to capture each workload trace and
// single-core baseline exactly once per session, no matter how many
// concurrent jobs ask for it.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/hotblock"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Job describes one independent trace-driven simulation: the trace
// replayed on machine Machine in execution mode Mode. The trace is
// shared read-only between concurrent jobs.
type Job struct {
	Machine config.Machine
	Mode    cmp.Mode
	Trace   *trace.Trace
	// Tag labels the job in error messages, e.g. "E2/mcf/fgstp". When
	// empty, errors carry a default machine/mode/workload tag instead.
	Tag string
	// Faults optionally injects deterministic faults into the run
	// (testing and fault drills); nil simulates normally.
	Faults cmp.Faults
	// HotBlock, when non-nil, receives the job's replay telemetry. Give
	// each concurrent job its own Counters and Merge them afterwards —
	// the engine updates them without synchronisation.
	HotBlock *hotblock.Counters
}

// tag returns the error label: the explicit Tag, or a default built
// from the job's machine, mode and trace.
func (j *Job) tag() string {
	if j.Tag != "" {
		return j.Tag
	}
	name := "?"
	if j.Trace != nil {
		name = j.Trace.Name
	}
	return fmt.Sprintf("%s/%s/%s", j.Machine.Name, j.Mode, name)
}

// Run executes the job and returns its run summary. On error the
// summary is always the zero Run and the error is wrapped with the
// job's tag; a panicking simulation is contained and surfaces as a
// tagged *PanicError.
func (j Job) Run() (stats.Run, error) {
	r, err := protect(j.tag(), func(j Job) (stats.Run, error) {
		return cmp.RunOpts(j.Machine, j.Mode, j.Trace, cmp.Options{Faults: j.Faults, HotBlock: j.HotBlock})
	}, j)
	if err != nil {
		if pe := (*PanicError)(nil); errors.As(err, &pe) {
			return stats.Run{}, err // already tagged by protect
		}
		return stats.Run{}, fmt.Errorf("%s: %w", j.tag(), err)
	}
	return r, nil
}

// Workers resolves a jobs setting to a worker count: n > 0 is used as
// given, anything else picks GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map applies fn to every item on up to workers goroutines (workers
// <= 0 picks GOMAXPROCS) and returns the results in submission order,
// so downstream aggregation is byte-identical to a serial loop
// regardless of worker count or completion order.
//
// On failure the error from the lowest-indexed failed item is returned
// and outstanding work is cancelled: items not yet started are skipped,
// items already in flight run to completion and their results are
// discarded. A panicking fn is contained and reported like any other
// failure.
func Map[T, R any](workers int, items []T, fn func(T) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), workers, items, fn)
}

// MapCtx is Map with cancellation between items: once ctx is done, no
// further item starts — items already in flight run to completion (an
// individual simulation is bounded by the livelock watchdog, so
// in-flight work cannot hang past it) and their results are discarded.
// A cancelled fan-out returns ctx's error (use errors.Is with
// context.Canceled / context.DeadlineExceeded) unless an item failure
// at a lower submission index takes precedence.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, fn func(T) (R, error)) ([]R, error) {
	n := len(items)
	out := make([]R, n)
	if n == 0 {
		return out, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := protect(itemTag(i), fn, items[i])
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				r, err := protect(itemTag(i), fn, items[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// itemTag labels an anonymous Map item in contained-panic errors.
func itemTag(i int) string { return fmt.Sprintf("item %d", i) }

// MapAll is the collect-all-errors variant of Map: every item runs to
// completion regardless of failures elsewhere, results land in
// submission order (the zero R at failed indexes), and errs is aligned
// with items — errs[i] is non-nil exactly when item i failed. Panics
// are contained like in Map. Use JoinErrors(errs) for a single
// deterministic aggregate error. This is the degradation primitive:
// one poisoned simulation yields one FAIL cell, not a dead experiment.
func MapAll[T, R any](workers int, items []T, fn func(T) (R, error)) (out []R, errs []error) {
	return MapAllCtx(context.Background(), workers, items, fn)
}

// MapAllCtx is MapAll with cancellation between items: once ctx is
// done, items not yet started are skipped and report ctx's error at
// their index, while items already in flight run to completion and
// keep their real results. Aggregation stays aligned with items either
// way.
func MapAllCtx[T, R any](ctx context.Context, workers int, items []T, fn func(T) (R, error)) (out []R, errs []error) {
	n := len(items)
	out = make([]R, n)
	errs = make([]error, n)
	if n == 0 {
		return out, errs
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			out[i], errs[i] = protect(itemTag(i), fn, items[i])
		}
		return out, errs
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = protect(itemTag(i), fn, items[i])
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// RunJobs fans the job list out over workers (<= 0 picks GOMAXPROCS)
// and returns the run summaries in submission order.
func RunJobs(workers int, jobs []Job) ([]stats.Run, error) {
	return Map(workers, jobs, Job.Run)
}

// RunJobsCtx is RunJobs with cancellation between jobs (see MapCtx).
func RunJobsCtx(ctx context.Context, workers int, jobs []Job) ([]stats.Run, error) {
	return MapCtx(ctx, workers, jobs, Job.Run)
}

// RunJobsAll fans the job list out like RunJobs but collects every
// failure instead of cancelling on the first: errs[i] is non-nil
// exactly when jobs[i] failed, and the other jobs' summaries are still
// returned.
func RunJobsAll(workers int, jobs []Job) ([]stats.Run, []error) {
	return MapAll(workers, jobs, Job.Run)
}

// RunJobsAllCtx is RunJobsAll with cancellation between jobs (see
// MapAllCtx): jobs not yet started when ctx is done report ctx's error
// at their index.
func RunJobsAllCtx(ctx context.Context, workers int, jobs []Job) ([]stats.Run, []error) {
	return MapAllCtx(ctx, workers, jobs, Job.Run)
}
