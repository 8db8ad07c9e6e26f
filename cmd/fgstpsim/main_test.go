package main

import (
	"context"
	"math"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// The -simpoint estimate must be a sane IPC: positive, finite, with a
// well-formed confidence interval in the neighbourhood of the full-run
// IPC (SimPoint sampling error on a short trace is real, so the band is
// loose — this is a smoke test of the wiring, not of the methodology,
// which internal/simpoint tests).
func TestSimpointEstimateSmoke(t *testing.T) {
	w, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	tr := w.Trace(20_000)
	m, err := config.ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.RunSim(context.Background(), m, tr, []cmp.Mode{cmp.ModeFgSTP}, "",
		experiments.SimpointParams{Interval: 2_000, Warmup: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errs[0] != nil {
		t.Fatal(rep.Errs[0])
	}
	full, ests := rep.Runs[0], rep.Ests
	if len(ests) != 1 {
		t.Fatalf("%d estimates, want 1", len(ests))
	}
	e := ests[0]
	if e.Error != "" {
		t.Fatalf("estimate failed: %s", e.Error)
	}
	if e.Points < 1 {
		t.Fatal("no representatives chosen")
	}
	if !(e.IPC > 0) || math.IsInf(e.IPC, 0) {
		t.Fatalf("implausible weighted IPC %g", e.IPC)
	}
	if !(e.IPCLow > 0) || !(e.IPCHigh >= e.IPC) || !(e.IPCLow <= e.IPC) {
		t.Fatalf("malformed CI [%g, %g] around %g", e.IPCLow, e.IPCHigh, e.IPC)
	}
	fullIPC := full.IPC()
	if e.IPC < fullIPC/3 || e.IPC > fullIPC*3 {
		t.Errorf("weighted IPC %.3f far from full-run IPC %.3f", e.IPC, fullIPC)
	}
	// Warmup regions overlap on a short trace with many points, so the
	// detailed-instruction count can exceed the trace length; it is
	// bounded by points * (warmup + interval).
	if e.SampledInsts == 0 || e.SampledInsts > uint64(e.Points*(e.Warmup+e.Interval)) {
		t.Errorf("sampled %d instructions (%d points of %d+%d)",
			e.SampledInsts, e.Points, e.Warmup, e.Interval)
	}
}
