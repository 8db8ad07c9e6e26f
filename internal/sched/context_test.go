package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestMapCtxCancelStopsNewItems proves cancellation between items: a
// context cancelled partway through a serial fan-out stops further
// items and surfaces context.Canceled.
func TestMapCtxCancelStopsNewItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	items := make([]int, 100)
	_, err := MapCtx(ctx, 1, items, func(int) (int, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 3 {
		t.Fatalf("started %d items after cancellation at item 3", n)
	}
}

// TestMapCtxCancelParallel is the parallel variant: after cancellation
// no new item starts (in-flight items finish), and the error is ctx's.
func TestMapCtxCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any item starts
	var started atomic.Int64
	items := make([]int, 64)
	_, err := MapCtx(ctx, 4, items, func(int) (int, error) {
		started.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d items started under a pre-cancelled context", n)
	}
}

// TestMapAllCtxMarksSkippedItems proves the collect-all variant aligns
// ctx errors with the items that never ran, while completed items keep
// their results.
func TestMapAllCtxMarksSkippedItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := []int{10, 20, 30, 40}
	out, errs := MapAllCtx(ctx, 1, items, func(v int) (int, error) {
		if v == 20 {
			cancel()
		}
		return v * 2, nil
	})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("completed items carry errors: %v %v", errs[0], errs[1])
	}
	if out[0] != 20 || out[1] != 40 {
		t.Fatalf("completed results = %v", out[:2])
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, errs[i])
		}
		if out[i] != 0 {
			t.Fatalf("skipped item %d has non-zero result %d", i, out[i])
		}
	}
	if err := JoinErrors(errs); err == nil {
		t.Fatal("JoinErrors of a cancelled MapAllCtx is nil")
	}
}

// TestMapCtxBackgroundMatchesMap pins that the Background-context path
// behaves exactly like the pre-context API, including the
// lowest-index-error contract.
func TestMapCtxBackgroundMatchesMap(t *testing.T) {
	items := []int{1, 2, 3, 4, 5}
	boom := errors.New("boom")
	fn := func(v int) (int, error) {
		if v == 3 {
			return 0, boom
		}
		return v + 1, nil
	}
	outA, errA := Map(2, items, fn)
	outB, errB := MapCtx(context.Background(), 2, items, fn)
	if !errors.Is(errA, boom) || !errors.Is(errB, boom) {
		t.Fatalf("errors = %v / %v, want boom", errA, errB)
	}
	if outA != nil || outB != nil {
		t.Fatalf("failed Map returned results: %v / %v", outA, outB)
	}
}

// TestRunJobsAllCtxCancelled drives a Job.Run fan-out: a cancelled
// context yields ctx errors for every job, not panics or hangs.
func TestRunJobsAllCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 3) // zero jobs would fail anyway; they must not start
	runs, errs := MapAllCtx(ctx, 2, jobs, Job.Run)
	if len(runs) != 3 {
		t.Fatalf("len(runs) = %d", len(runs))
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}
