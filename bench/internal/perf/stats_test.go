package perf

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64 // 0: an error is expected
	}{
		{100, 0.9, 90},
		{99, 0.9, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{464, 0.5, 232},
		{0, 0.5, 0},
	}
	for _, c := range cases {
		got, err := Percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want an error", c.p*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.p*100, c.n, got, err, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3, err := Quartiles(seq(10))
	if err != nil || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("Quartiles(1..10) = %g, %g, %v; want 2.75, 8.25", q1, q3, err)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q3, err = Quartiles([]float64{3, 1})
	if err != nil || q1 != 0.5 || q3 != 3.5 {
		t.Fatalf("Quartiles(3, 1) = %g, %g, %v; want 0.5, 3.5", q1, q3, err)
	}
	if _, _, err := Quartiles([]float64{1}); err == nil {
		t.Fatal("Quartiles of one sample succeeded")
	}
}

func iv(a, b int) Interval {
	return Interval{time.Duration(a) * time.Second, time.Duration(b) * time.Second}
}

func TestSelfTimeWithOverlappingParallelChildren(t *testing.T) {
	parent := iv(0, 10)
	children := []Interval{
		iv(3, 6), // overlaps the next one: two workers busy at once
		iv(1, 4),
		iv(2, 3),  // nested in [1, 4)
		iv(8, 12), // runs past the parent: clipped to [8, 10)
	}
	// Covered: [1, 6) and [8, 10) = 7 s, so self time is 3 s.
	if got := SelfTime(parent, children); got != 3*time.Second {
		t.Fatalf("SelfTime = %v, want 3s", got)
	}
	if got := UnionLen(children); got != 9*time.Second {
		t.Fatalf("UnionLen = %v, want 9s", got)
	}
	if got := SelfTime(parent, nil); got != 10*time.Second {
		t.Fatalf("SelfTime without children = %v, want 10s", got)
	}
}
