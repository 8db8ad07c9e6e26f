// Package sched is the deterministic worker-pool scheduler of the
// simulation harness. The Fg-STP evaluation is hundreds of independent
// trace-driven simulations (workload × machine × mode × sweep point);
// sched fans them out over GOMAXPROCS goroutines while keeping every
// observable output byte-identical to a serial run:
//
//   - Results are collected in submission order, so tables and geomeans
//     aggregate exactly as a serial loop would.
//   - Each simulation is a pure function of (machine, mode, trace):
//     traces are immutable after capture (see internal/trace) and every
//     timing model allocates its own state per run, so concurrent jobs
//     share nothing but read-only inputs.
//   - Every item runs and every failure is reported at its index, so
//     one failed simulation never costs its siblings their results.
//   - Callbacks execute under recover: a panicking simulation becomes a
//     structured *PanicError instead of killing the process, and its
//     sibling jobs complete normally.
//
// Job is the concrete simulation unit; MapAllCtx is the one fan-out
// primitive; Cache is the single-flight memoisation behind a session's
// workload traces and simulation cells, so each is computed once per
// session no matter how many concurrent jobs ask for it.
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
	// Deprecated: HotBlock is read by nothing. bench/'s traced run still
	// sets it until ROADMAP item 4; item 5 then deletes the field.
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
		return cmp.RunOpts(j.Machine, j.Mode, j.Trace, cmp.Options{Faults: j.Faults})
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

// itemTag labels an anonymous item in contained-panic errors.
func itemTag(i int) string { return fmt.Sprintf("item %d", i) }

// MapAll is MapAllCtx without cancellation, for callers that have no
// context: simpoint.EstimateCPI and bench/'s traced run.
func MapAll[T, R any](workers int, items []T, fn func(T) (R, error)) (out []R, errs []error) {
	return MapAllCtx(context.Background(), workers, items, fn)
}

// MapAllCtx applies fn to every item on up to workers goroutines
// (workers <= 0 picks GOMAXPROCS). Every item runs to completion
// regardless of failures elsewhere, results land in submission order
// (the zero R at failed indexes), and errs is aligned with items:
// errs[i] is non-nil exactly when item i failed. A panicking fn is
// contained as a *PanicError. Use JoinErrors(errs) for one
// deterministic aggregate error. This is the degradation primitive: one
// poisoned simulation yields one FAIL cell, not a dead experiment.
//
// Once ctx is done, items not yet started are skipped and report ctx's
// error at their index, while items already in flight run to
// completion (the livelock watchdog bounds each simulation) and keep
// their real results.
func MapAllCtx[T, R any](ctx context.Context, workers int, items []T, fn func(T) (R, error)) (out []R, errs []error) {
	n := len(items)
	out = make([]R, n)
	errs = make([]error, n)
	w := min(Workers(workers), n)
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
