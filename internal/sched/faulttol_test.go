package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// A panicking callback must surface as a tagged *PanicError with a
// stack, not kill the pool, and the sibling items must complete.
func TestMapAllContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		items := []int{0, 1, 2, 3, 4, 5}
		out, errs := MapAll(workers, items, func(i int) (int, error) {
			if i == 3 {
				panic("boom")
			}
			return i * 10, nil
		})
		for i := range items {
			if i == 3 {
				if errs[i] == nil {
					t.Fatalf("workers=%d: panicking item reported no error", workers)
				}
				var pe *PanicError
				if !errors.As(errs[i], &pe) {
					t.Fatalf("workers=%d: error %v is not a *PanicError", workers, errs[i])
				}
				if pe.Tag != "item 3" || pe.Value != "boom" || len(pe.Stack) == 0 {
					t.Errorf("workers=%d: bad panic error: tag=%q value=%v stack=%d bytes",
						workers, pe.Tag, pe.Value, len(pe.Stack))
				}
				if out[i] != 0 {
					t.Errorf("workers=%d: failed item has non-zero result %d", workers, out[i])
				}
				continue
			}
			if errs[i] != nil || out[i] != i*10 {
				t.Errorf("workers=%d: sibling %d: out=%d err=%v", workers, i, out[i], errs[i])
			}
		}
	}
}

// MapAll's error slice must be identical across worker counts.
func TestMapAllDeterministic(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	fn := func(i int) (int, error) {
		if i%3 == 0 {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	}
	out1, errs1 := MapAll(1, items, fn)
	out4, errs4 := MapAll(4, items, fn)
	for i := range items {
		if out1[i] != out4[i] {
			t.Errorf("item %d: out %d != %d", i, out1[i], out4[i])
		}
		s1, s4 := fmt.Sprint(errs1[i]), fmt.Sprint(errs4[i])
		if s1 != s4 {
			t.Errorf("item %d: err %q != %q", i, s1, s4)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	if JoinErrors(nil) != nil || JoinErrors([]error{nil, nil}) != nil {
		t.Error("all-nil slice must join to nil")
	}
	e1, e2 := fmt.Errorf("first"), fmt.Errorf("second")
	err := JoinErrors([]error{nil, e1, nil, e2})
	if err == nil {
		t.Fatal("failures joined to nil")
	}
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Error("joined error must wrap every failure")
	}
	if !strings.HasPrefix(err.Error(), "2 of 4 jobs failed") {
		t.Errorf("bad aggregate message %q", err.Error())
	}
}

// A Job with an empty Tag must still fail with a descriptive default
// tag and a uniformly zero Run.
func TestJobRunDefaultTag(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	tr := w.Trace(2000)
	m := config.Medium()
	m.FgSTP.Steering = "bogus" // fails machine validation
	j := Job{Machine: m, Mode: "fgstp", Trace: tr}
	r, err := j.Run()
	if err == nil {
		t.Fatal("invalid machine accepted")
	}
	if r.Cycles != 0 || r.Insts != 0 || r.Workload != "" || r.Mode != "" || len(r.Metrics) != 0 {
		t.Errorf("failed job returned non-zero Run %+v", r)
	}
	want := "medium/fgstp/mcf"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q lacks default tag %q", err.Error(), want)
	}
}
