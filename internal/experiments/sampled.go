package experiments

import (
	"context"
	"sync"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/simpoint"
	"repro/internal/trace"
)

// DefaultSimpointK is the number of clusters a sampled run asks of
// k-means when the caller does not choose one; k-means may merge down
// from it on short or phase-poor traces.
const DefaultSimpointK = 8

// SimpointParams bundles the knobs of a checkpointed sampled run.
type SimpointParams struct {
	// Interval is the SimPoint interval length in instructions; <= 0
	// turns sampling off.
	Interval int
	// K is the cluster-count request; <= 0 picks DefaultSimpointK.
	K int
	// Warmup is the detailed-warmup length in instructions; < 0 picks
	// one full interval (the standard choice — long enough to absorb
	// residual cold-start state the functional warmer cannot model).
	Warmup int
}

func (p SimpointParams) k() int {
	if p.K <= 0 {
		return DefaultSimpointK
	}
	return p.K
}

func (p SimpointParams) warmup() int {
	if p.Warmup < 0 {
		return p.Interval
	}
	return p.Warmup
}

// SimEstimate is one mode's sampled whole-trace estimate as exported in
// the fgstp.sim/1 document: the weighted IPC point estimate with its
// 95% confidence interval, plus the sampling parameters that produced
// it. A failed mode carries an error string instead of numbers.
type SimEstimate struct {
	Mode         string  `json:"mode"`
	Error        string  `json:"error,omitempty"`
	Interval     int     `json:"interval"`
	Warmup       int     `json:"warmup"`
	Points       int     `json:"points,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
	IPCLow       float64 `json:"ipc_ci_low,omitempty"`
	IPCHigh      float64 `json:"ipc_ci_high,omitempty"`
	SampledInsts uint64  `json:"sampled_insts,omitempty"`
	TraceInsts   uint64  `json:"trace_insts,omitempty"`
}

// sampler computes the sampled estimates of one report, one estimate
// task per mode on the report's worker pool (see RunSim).
// Representative selection is mode-independent, so the first estimate
// task to start makes it once for every mode; it then overlaps the
// full runs still in flight on the other workers.
type sampler struct {
	m  config.Machine
	tr *trace.Trace
	p  SimpointParams

	once       sync.Once
	reps       []simpoint.Representative
	boundaries []int // checkpoint positions: each slice's warmup start
	err        error

	// sims holds one slice simulator per warmed hierarchy (the predictor
	// is m's in every mode), single-flight between the estimate tasks:
	// single and Fg-STP share one checkpoint capture pass.
	sims sched.Cache[mem.HierarchyConfig, *cmp.SliceSim]
}

func (s *sampler) choose() {
	s.reps, s.err = simpoint.Choose(s.tr, s.p.Interval, s.p.k())
	if s.err != nil {
		return
	}
	slices, err := simpoint.Slices(s.reps, s.p.Interval, s.p.warmup(), s.tr.Len())
	if err != nil {
		s.err = err
		return
	}
	s.boundaries = make([]int, len(slices))
	for i, sl := range slices {
		s.boundaries[i] = sl.WStart
	}
}

// estimate fills e with md's sampled estimate: the checkpoints of md's
// geometry, captured by the first task to need them, then the slices
// one after another on the calling worker — the report's pool, not a
// nested fan-out, bounds how many simulations run at once.
// Aggregation is in representative order, so the estimate is
// the same at any pool size. Once ctx is done no further slice starts
// and ctx's error is returned.
func (s *sampler) estimate(ctx context.Context, md cmp.Mode, e *SimEstimate) error {
	s.once.Do(s.choose)
	if s.err != nil {
		return s.err
	}
	sim, err := s.sims.Do(cmp.Hierarchy(s.m, md), func() (*cmp.SliceSim, error) {
		return cmp.NewSliceSim(s.m, md, s.tr, s.boundaries)
	})
	if err == nil {
		sim, err = sim.WithMode(md)
	}
	if err != nil {
		return err
	}
	est, err := simpoint.EstimateCPI(s.reps, s.p.Interval, s.p.warmup(), s.tr.Len(), 1, ctxSlices(ctx, sim.Run))
	if err != nil {
		return err
	}
	e.Points = est.Points
	e.IPC = est.IPC
	e.IPCLow = est.IPCLow
	e.IPCHigh = est.IPCHigh
	e.SampledInsts = est.SampledInsts
	e.TraceInsts = est.TraceInsts
	return nil
}

// ctxSlices guards a slice simulator with ctx: once ctx is done, a
// slice fails with ctx's error instead of simulating. Each slice is
// bounded by the livelock watchdog, so an estimate outlives its
// deadline by at most one slice.
func ctxSlices(ctx context.Context, fn simpoint.SliceFn) simpoint.SliceFn {
	return func(wstart, start, end int) (uint64, uint64, error) {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		return fn(wstart, start, end)
	}
}
