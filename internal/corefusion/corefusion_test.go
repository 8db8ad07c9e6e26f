package corefusion_test

import (
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/corefusion"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// mustRun runs tr on m's fused machine through cmp, which builds it
// from FusedConfig and FusedHierarchy.
func mustRun(tb testing.TB, m config.Machine, tr *trace.Trace) stats.Run {
	tb.Helper()
	r, err := cmp.Run(m, cmp.ModeFusion, tr)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestFusedConfigDerivation(t *testing.T) {
	m := config.Medium()
	c := corefusion.FusedConfig(m)
	if c.FetchWidth != 2*m.Core.FetchWidth || c.FrontWidth != 2*m.Core.FrontWidth {
		t.Error("fused front end must double")
	}
	if c.ROBSize != 2*m.Core.ROBSize || c.LQSize != 2*m.Core.LQSize {
		t.Error("fused windows must double")
	}
	if c.IssueWidth != m.Core.IssueWidth || c.IQSize != m.Core.IQSize {
		t.Error("issue stays per cluster")
	}
	if c.Clusters != 2 {
		t.Error("fused core must have two clusters")
	}
	if c.FrontendDepth != m.Core.FrontendDepth+m.Fusion.ExtraFrontend {
		t.Error("fused frontend must be deeper")
	}
	if c.ExtraMispredictPenalty != m.Fusion.ExtraMispredict {
		t.Error("fused mispredict penalty missing")
	}
	if c.CrossClusterBypass != m.Fusion.CrossClusterBypass {
		t.Error("cross-cluster bypass not carried")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("fused config invalid: %v", err)
	}
}

func TestFusedHierarchyDerivation(t *testing.T) {
	m := config.Medium()
	h := corefusion.FusedHierarchy(m)
	if h.L1D.SizeBytes != 2*m.Hier.L1D.SizeBytes {
		t.Error("fused L1D must double (banked pair)")
	}
	if h.L1D.LatencyCycles != m.Hier.L1D.LatencyCycles+m.Fusion.L1CrossbarLatency {
		t.Error("fused L1D must pay the crossbar")
	}
	if h.L2 != m.Hier.L2 {
		t.Error("L2 unchanged by fusion")
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("fused hierarchy invalid: %v", err)
	}
}

func TestFusedRunCommitsEverything(t *testing.T) {
	m := config.Small()
	for _, name := range []string{"gobmk", "soplex"} {
		w, _ := workloads.ByName(name)
		tr := w.Trace(8_000)
		r := mustRun(t, m, tr)
		if r.Insts != uint64(tr.Len()) {
			t.Errorf("%s: committed %d of %d", name, r.Insts, tr.Len())
		}
		if r.Mode != "corefusion" {
			t.Errorf("mode %q", r.Mode)
		}
	}
}

// The fused core's doubled resources must beat the single core on wide
// independent work despite the overheads.
func TestFusedWinsOnWideWork(t *testing.T) {
	b := program.NewBuilder("wide")
	b.Label("main")
	for i := 0; i < 4000; i++ {
		b.Addi(isa.Reg(1+i%16), isa.R0, int64(i))
	}
	b.Halt()
	tr := trace.CaptureFromLabel(b.MustBuild(), "main", 0)
	m := config.Medium()
	fused := mustRun(t, m, tr)

	// Single core on the same trace.
	single := singleCycles(t, m, tr)
	if fused.Cycles >= single {
		t.Errorf("fused (%d cycles) not faster than single (%d) on independent work",
			fused.Cycles, single)
	}
}

// The extra frontend depth must cost the fused core on mispredict-heavy
// work relative to its width advantage: fused CPI penalty per branch
// must exceed the single core's.
func TestFusedMispredictPenaltyDeeper(t *testing.T) {
	// Chaotic branches, minimal other work.
	b := program.NewBuilder("br")
	b.Li(isa.R1, 12345)
	b.Li(isa.R2, 3000)
	b.Li(isa.R5, 6364136223846793005)
	b.Label("main")
	b.Label("loop")
	b.Mul(isa.R1, isa.R1, isa.R5)
	b.Addi(isa.R1, isa.R1, 987654321)
	b.Shri(isa.R3, isa.R1, 61)
	b.Andi(isa.R3, isa.R3, 1)
	b.Beq(isa.R3, isa.R0, "skip")
	b.Addi(isa.R4, isa.R4, 1)
	b.Label("skip")
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "loop")
	b.Halt()
	tr := trace.CaptureFromLabel(b.MustBuild(), "main", 0)
	m := config.Medium()
	fused := mustRun(t, m, tr)
	single := singleCycles(t, m, tr)
	if fused.Cycles <= single {
		t.Errorf("fused (%d) should lose to single (%d) on mispredict-bound work",
			fused.Cycles, single)
	}
}

func singleCycles(t *testing.T, m config.Machine, tr *trace.Trace) uint64 {
	t.Helper()
	r, err := cmp.Run(m, cmp.ModeSingle, tr)
	if err != nil {
		t.Fatal(err)
	}
	return r.Cycles
}
