package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestMapAllCtxCancelParallel: under a context cancelled before the
// fan-out, no item starts on any worker and every item reports ctx's
// error.
func TestMapAllCtxCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	items := make([]int, 64)
	_, errs := MapAllCtx(ctx, 4, items, func(int) (int, error) {
		started.Add(1)
		return 0, nil
	})
	if n := started.Load(); n != 0 {
		t.Fatalf("%d items started under a pre-cancelled context", n)
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
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
