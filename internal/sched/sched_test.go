package sched_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func TestWorkers(t *testing.T) {
	if got := sched.Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := sched.Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := sched.Workers(-5); got != sched.Workers(0) {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS default", got)
	}
}

// TestMapOrder checks that results land in submission order no matter
// how many workers race over the items.
func TestMapOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64} {
		out, errs := sched.MapAll(workers, items, func(v int) (int, error) {
			return v * v, nil
		})
		if err := sched.JoinErrors(errs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, errs := sched.MapAll(4, nil, func(int) (int, error) { return 0, nil })
	if len(out) != 0 || len(errs) != 0 {
		t.Fatalf("MapAll(nil) = %v, %v", out, errs)
	}
}

// TestMapError checks that a failing item surfaces its error at its
// index while every other item still runs and keeps its result.
func TestMapError(t *testing.T) {
	const workers, failAt = 4, 5
	boom := errors.New("boom")
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	var ran atomic.Int64
	out, errs := sched.MapAll(workers, items, func(v int) (int, error) {
		ran.Add(1)
		if v == failAt {
			return 0, fmt.Errorf("item %d: %w", v, boom)
		}
		return v, nil
	})
	if !errors.Is(errs[failAt], boom) {
		t.Fatalf("errs[%d] = %v, want wrapped boom", failAt, errs[failAt])
	}
	if n := ran.Load(); n != int64(len(items)) {
		t.Errorf("%d of %d items ran, want all", n, len(items))
	}
	for i, v := range out {
		if i != failAt && (errs[i] != nil || v != i) {
			t.Fatalf("item %d: out %d, err %v", i, v, errs[i])
		}
	}
}

// TestMapErrorSerial checks that one worker runs the items in
// submission order, like a plain loop, and keeps going past a failure.
func TestMapErrorSerial(t *testing.T) {
	var ran []int
	_, errs := sched.MapAll(1, []int{0, 1, 2, 3}, func(v int) (int, error) {
		ran = append(ran, v)
		if v == 1 {
			return 0, errors.New("stop")
		}
		return v, nil
	})
	if errs[1] == nil || !reflect.DeepEqual(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("errs=%v ran=%v, want item 1's error after items 0..3 in order", errs, ran)
	}
}

// TestConcurrentModesDeterministic is the trace-sharing guard: it
// captures one workload trace, replays it in all three execution modes
// concurrently, twice over, and asserts the repeated runs are
// identical. Under -race this also proves the simulators treat the
// shared *trace.Trace (and the isa.DynInst pointers Trace.At hands
// out) as read-only.
func TestConcurrentModesDeterministic(t *testing.T) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf missing")
	}
	tr := w.Trace(5_000)
	m := config.Medium()

	const repeats = 2
	var jobs []sched.Job
	for rep := 0; rep < repeats; rep++ {
		for _, mode := range cmp.Modes() {
			jobs = append(jobs, sched.Job{
				Machine: m, Mode: mode, Trace: tr,
				Tag: fmt.Sprintf("guard/%s/rep%d", mode, rep),
			})
		}
	}
	runs, errs := sched.MapAll(len(jobs), jobs, sched.Job.Run)
	if err := sched.JoinErrors(errs); err != nil {
		t.Fatal(err)
	}
	nm := len(cmp.Modes())
	for rep := 1; rep < repeats; rep++ {
		for j := 0; j < nm; j++ {
			a, b := runs[j], runs[rep*nm+j]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("mode %s: concurrent repeat diverged:\n  first: %+v\n  repeat %d: %+v",
					cmp.Modes()[j], a, rep, b)
			}
		}
	}
	for j, mode := range cmp.Modes() {
		if runs[j].Cycles == 0 {
			t.Errorf("mode %s: zero-cycle run", mode)
		}
	}
}

// TestRunJobsOrder checks a Job.Run fan-out labels results in
// submission order.
func TestRunJobsOrder(t *testing.T) {
	w, ok := workloads.ByName("astar")
	if !ok {
		t.Fatal("workload astar missing")
	}
	tr := w.Trace(2_000)
	m := config.Small()
	jobs := make([]sched.Job, 0, len(cmp.Modes()))
	for _, mode := range cmp.Modes() {
		jobs = append(jobs, sched.Job{Machine: m, Mode: mode, Trace: tr})
	}
	runs, errs := sched.MapAll(0, jobs, sched.Job.Run)
	if err := sched.JoinErrors(errs); err != nil {
		t.Fatal(err)
	}
	for i, mode := range cmp.Modes() {
		if runs[i].Mode != string(mode) {
			t.Errorf("runs[%d].Mode = %q, want %q", i, runs[i].Mode, mode)
		}
	}
}
