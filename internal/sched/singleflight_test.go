package sched_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// TestCacheSingleFlight checks that concurrent Do calls for one key
// execute the function exactly once and all observe its result.
func TestCacheSingleFlight(t *testing.T) {
	var c sched.Cache[string, int]
	var calls atomic.Int64
	release := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("waiter %d got %d", i, v)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}

// TestCacheDistinctKeys checks keys don't share flights.
func TestCacheDistinctKeys(t *testing.T) {
	var c sched.Cache[int, int]
	for k := 0; k < 10; k++ {
		v, err := c.Do(k, func() (int, error) { return k * 10, nil })
		if err != nil || v != k*10 {
			t.Fatalf("Do(%d) = %d, %v", k, v, err)
		}
	}
	if c.Len() != 10 {
		t.Errorf("Len() = %d, want 10", c.Len())
	}
}

// TestCachePanicReleasesFlight checks a panicking computation neither
// pins its key nor strands its waiters: the panic reaches the computing
// caller, a caller that joined the flight gets a *PanicError, and the
// next Do recomputes.
func TestCachePanicReleasesFlight(t *testing.T) {
	var c sched.Cache[string, int]
	entered := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do("k", func() (int, error) {
			close(entered)
			<-release
			panic("engine bug")
		})
	}()
	<-entered
	joined := make(chan error, 1)
	go func() {
		// Joins the flight unless it already ended, in which case it
		// computes the value itself; either way it must return.
		_, err := c.Do("k", func() (int, error) { return 1, nil })
		joined <- err
	}()
	close(release)
	if p := <-recovered; p != "engine bug" {
		t.Fatalf("computing caller recovered %v, want the panic", p)
	}
	var pe *sched.PanicError
	if err := <-joined; err != nil && !errors.As(err, &pe) {
		t.Fatalf("waiter error = %v, want nil or a *PanicError", err)
	}
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || (v != 7 && v != 1) {
		t.Fatalf("Do after the panic = %d, %v", v, err)
	}
}

// TestCacheErrorRetry checks a failed computation is not cached: the
// error reaches the caller and the next Do retries.
func TestCacheErrorRetry(t *testing.T) {
	var c sched.Cache[string, int]
	boom := errors.New("boom")
	calls := 0
	_, err := c.Do("k", func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("first Do error = %v", err)
	}
	v, err := c.Do("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry Do = %d, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (no caching of errors)", calls)
	}
	// Success is cached.
	v, _ = c.Do("k", func() (int, error) { calls++; return 99, nil })
	if v != 7 || calls != 2 {
		t.Errorf("cached Do = %d (calls %d), want 7 (2)", v, calls)
	}
}

// TestCacheForget checks Forget drops a computed value, so a later Do
// recomputes, leaves an in-flight key alone, so its callers still share
// one computation, and ignores an absent key; Peak keeps the most
// entries held at once.
func TestCacheForget(t *testing.T) {
	var c sched.Cache[string, int]
	calls := 0
	c.Do("a", func() (int, error) { calls++; return 1, nil })
	c.Forget("a")
	c.Forget("absent")
	if c.Len() != 0 {
		t.Fatalf("Len() = %d after Forget, want 0", c.Len())
	}
	if v, _ := c.Do("a", func() (int, error) { calls++; return 2, nil }); v != 2 || calls != 2 {
		t.Fatalf("Do after Forget = %d (calls %d), want a recomputed 2 (2)", v, calls)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := c.Do("b", func() (int, error) {
			close(entered)
			<-release
			return 3, nil
		})
		done <- v
	}()
	<-entered
	c.Forget("b")
	joined := make(chan int)
	go func() {
		v, _ := c.Do("b", func() (int, error) { return 4, nil })
		joined <- v
	}()
	close(release)
	if v, w := <-done, <-joined; v != 3 || w != 3 {
		t.Fatalf("in-flight key: computing caller got %d, later caller %d, want 3 and 3", v, w)
	}
	if c.Len() != 2 || c.Peak() != 2 {
		t.Fatalf("Len() = %d, Peak() = %d, want 2 and 2", c.Len(), c.Peak())
	}
	c.Forget("a")
	c.Forget("b")
	if c.Len() != 0 || c.Peak() != 2 {
		t.Fatalf("after forgetting both: Len() = %d, Peak() = %d, want 0 and 2", c.Len(), c.Peak())
	}
}
