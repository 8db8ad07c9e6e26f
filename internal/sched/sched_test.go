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
		out, err := sched.Map(workers, items, func(v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
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
	out, err := sched.Map(4, nil, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(nil) = %v, %v", out, err)
	}
}

// TestMapError checks that a failing item surfaces its error and that
// cancellation keeps not-yet-started items from running. Items after
// the failing one wait until the failure is recorded, so the workers
// cannot drain the list first: besides items 0..5, at most one item
// per other worker (claimed before the failure, held at the gate) may
// run.
func TestMapError(t *testing.T) {
	const workers, failAt = 4, 5
	boom := errors.New("boom")
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	recorded := make(chan struct{})
	defer sched.SetFailedHook(func() { close(recorded) })()
	var ran atomic.Int64
	_, err := sched.Map(workers, items, func(v int) (int, error) {
		if v > failAt {
			<-recorded
		}
		ran.Add(1)
		if v == failAt {
			return 0, fmt.Errorf("item %d: %w", v, boom)
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map error = %v, want wrapped boom", err)
	}
	if n, limit := ran.Load(), int64(failAt+workers); n > limit {
		t.Errorf("%d of %d items ran despite the failure at item %d, want at most %d", n, len(items), failAt, limit)
	}
}

// TestMapErrorSerial checks the workers=1 fast path stops at the first
// error like a plain loop.
func TestMapErrorSerial(t *testing.T) {
	var ran int
	_, err := sched.Map(1, []int{0, 1, 2, 3}, func(v int) (int, error) {
		ran++
		if v == 1 {
			return 0, errors.New("stop")
		}
		return v, nil
	})
	if err == nil || ran != 2 {
		t.Fatalf("err=%v ran=%d, want error after 2 items", err, ran)
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
	runs, err := sched.Map(len(jobs), jobs, sched.Job.Run)
	if err != nil {
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
	runs, err := sched.Map(0, jobs, sched.Job.Run)
	if err != nil {
		t.Fatal(err)
	}
	for i, mode := range cmp.Modes() {
		if runs[i].Mode != string(mode) {
			t.Errorf("runs[%d].Mode = %q, want %q", i, runs[i].Mode, mode)
		}
	}
}
