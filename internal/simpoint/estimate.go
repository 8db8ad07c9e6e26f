package simpoint

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// Slice is one representative's detailed-simulation work item: warmup
// region [WStart, Start) followed by the measured region [Start, End).
type Slice struct {
	WStart int
	Start  int
	End    int
	Weight float64
}

// Slices expands the representatives into their simulation slices:
// each measured interval is clamped to the trace and preceded by up to
// warmup instructions of detailed warmup (clamped at the trace start).
// The checkpoint a slice restores from sits at WStart.
func Slices(reps []Representative, intervalInsts, warmup, traceLen int) ([]Slice, error) {
	if intervalInsts < 1 {
		return nil, fmt.Errorf("simpoint: interval %d < 1", intervalInsts)
	}
	if warmup < 0 {
		return nil, fmt.Errorf("simpoint: negative warmup %d", warmup)
	}
	out := make([]Slice, 0, len(reps))
	for _, r := range reps {
		s := Slice{WStart: r.Start - warmup, Start: r.Start, End: r.Start + intervalInsts, Weight: r.Weight}
		if s.WStart < 0 {
			s.WStart = 0
		}
		if s.End > traceLen {
			s.End = traceLen
		}
		if s.End <= s.Start {
			return nil, fmt.Errorf("simpoint: empty representative at %d (trace %d)", r.Start, traceLen)
		}
		out = append(out, s)
	}
	return out, nil
}

// SliceFn runs detailed simulation over trace instructions
// [wstart, end) with [wstart, start) as warmup, and returns the
// measured region's (cycles, instructions). cmp.SliceSim.Run satisfies
// this signature; tests substitute closures.
type SliceFn func(wstart, start, end int) (uint64, uint64, error)

// Confidence-interval constants: z for a 95% normal interval over the
// weighted between-representative variance, plus a relative bias floor
// of ciBiasBase/sqrt(points). The variance term only sees phase
// heterogeneity — when k-means collapses to one or two clusters (a
// self-similar signature need not mean self-similar timing: a
// pointer-chasing loop looks identical in PC space while its cache
// behaviour drifts over the trace) it goes to zero while the estimate
// is still biased — so the floor widens as coverage shrinks.
// Calibrated against the full workload roster (scripts/simpointcheck
// -workloads all): the observed worst-case relative bias is ~15% at one
// representative and ~16% at two; the base leaves margin over both.
const (
	ciZ        = 1.96
	ciBiasBase = 0.35
)

// Estimate is a sampled whole-trace performance estimate with its 95%
// confidence interval.
type Estimate struct {
	// IPC and CPI are the weighted point estimates.
	IPC float64
	CPI float64
	// IPCLow and IPCHigh bound the 95% confidence interval on IPC
	// (between-representative variance plus a small-sample bias floor).
	IPCLow  float64
	IPCHigh float64
	// Points is the number of representative slices simulated.
	Points int
	// Interval and Warmup echo the sampling parameters (instructions).
	Interval int
	Warmup   int
	// SampledInsts counts instructions simulated in detail, warmup
	// included; TraceInsts is the full trace length the estimate stands
	// for. Their ratio is the detailed-simulation fraction.
	SampledInsts uint64
	TraceInsts   uint64
}

// EstimateCPI estimates the full trace's CPI and IPC from the chosen
// representatives, fanning the slices out over up to jobs parallel
// workers (jobs <= 0 picks GOMAXPROCS). Each slice simulates once,
// restored at its checkpoint: the warmup region absorbs residual
// cold-start state and only the measured region counts. Aggregation is
// deterministic — results combine in representative order regardless of
// worker interleaving. Every slice runs; if any fails, the error is the
// one of the lowest-index failed slice.
func EstimateCPI(reps []Representative, intervalInsts, warmup, traceLen, jobs int, sim SliceFn) (Estimate, error) {
	if sim == nil {
		return Estimate{}, fmt.Errorf("simpoint: nil simulate function")
	}
	if len(reps) == 0 {
		return Estimate{}, fmt.Errorf("simpoint: no representatives")
	}
	slices, err := Slices(reps, intervalInsts, warmup, traceLen)
	if err != nil {
		return Estimate{}, err
	}

	type measured struct {
		cycles uint64
		insts  uint64
	}
	results, errs := sched.MapAll(jobs, slices, func(s Slice) (measured, error) {
		cycles, insts, err := sim(s.WStart, s.Start, s.End)
		if err != nil {
			return measured{}, err
		}
		if insts == 0 {
			return measured{}, fmt.Errorf("simpoint: slice at %d measured no instructions", s.Start)
		}
		return measured{cycles, insts}, nil
	})
	for _, err := range errs {
		if err != nil {
			return Estimate{}, err
		}
	}

	// Weighted point estimate and between-representative variance.
	// Weights sum to one (cluster population fractions), so the weighted
	// mean needs no renormalisation.
	est := Estimate{
		Points:     len(slices),
		Interval:   intervalInsts,
		Warmup:     warmup,
		TraceInsts: uint64(traceLen),
	}
	cpis := make([]float64, len(slices))
	var sumW2 float64
	for i, s := range slices {
		cpis[i] = float64(results[i].cycles) / float64(results[i].insts)
		est.CPI += s.Weight * cpis[i]
		est.SampledInsts += uint64(s.End - s.WStart)
		sumW2 += s.Weight * s.Weight
	}
	var varB float64
	for i, s := range slices {
		d := cpis[i] - est.CPI
		varB += s.Weight * d * d
	}
	// Standard error of a weighted mean under the between-representative
	// variance, widened by the bias floor (see the constants above).
	half := ciZ*math.Sqrt(varB*sumW2) + ciBiasBase/math.Sqrt(float64(len(slices)))*est.CPI

	est.IPC = 1 / est.CPI
	est.IPCLow = 1 / (est.CPI + half)
	lo := est.CPI - half
	if lo <= 0 {
		// Degenerate interval (huge variance relative to the mean):
		// cap the upper IPC bound instead of letting it blow up.
		lo = est.CPI / 2
	}
	est.IPCHigh = 1 / lo
	return est, nil
}
