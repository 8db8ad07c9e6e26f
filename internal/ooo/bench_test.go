package ooo

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// BenchmarkSingleCoreDrain measures the single-core cycle loop end to
// end: fetch, rename, issue, LSQ disambiguation and commit on a real
// workload trace. The allocs/op column is the pooling regression
// signal for the conventional-core path.
func BenchmarkSingleCoreDrain(b *testing.B) {
	w, ok := workloads.ByName("gcc")
	if !ok {
		b.Fatal("unknown workload gcc")
	}
	tr := w.Trace(30_000)
	cfg := testConfig()
	hcfg := testHier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier, err := mem.NewHierarchy(hcfg)
		if err != nil {
			b.Fatal(err)
		}
		core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Drain(core, tr.Len()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "insts/op")
}

// chaseTrace builds a serially-dependent pointer chase: a setup loop
// writes a linked chain through memory at one-word-per-page stride,
// then the chase loop walks it with each load's address produced by the
// previous load. With the chain footprint past the cache capacity every
// chase step is a full DRAM round trip that nothing can overlap — the
// memory-bound worst case the cycle skipper exists for.
func chaseTrace(nodes int64) *trace.Trace {
	const base, stride = 0x400000, 4096
	b := program.NewBuilder("chase")
	b.Li(isa.R1, base)
	b.Li(isa.R2, nodes)
	b.Li(isa.R4, stride)
	b.Label("setup")
	b.Add(isa.R5, isa.R1, isa.R4)
	b.St(isa.R5, isa.R1, 0)
	b.Mov(isa.R1, isa.R5)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "setup")
	b.Li(isa.R3, base)
	b.Li(isa.R2, nodes)
	b.Label("chase")
	b.Ld(isa.R3, isa.R3, 0)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "chase")
	b.Halt()
	return trace.Capture(b.MustBuild(), 0)
}

// memBoundHier shrinks the caches under the chase footprint and makes
// DRAM expensive, so nearly all chase cycles are dead waiting time.
func memBoundHier() mem.HierarchyConfig {
	h := testHier()
	h.DRAMLatency = 800
	h.L1D.SizeBytes = 4 << 10
	h.L2.SizeBytes = 16 << 10
	return h
}

// BenchmarkMemoryBoundCycleSkip measures Drain on the pointer chase:
// long serially-dependent DRAM stalls are the best case for
// event-driven time advance (and the worst case for a ticked engine,
// which burns a Cycle call per stall cycle). The headline perf signal
// of the cycle-skipping work.
func BenchmarkMemoryBoundCycleSkip(b *testing.B) {
	tr := chaseTrace(1024)
	cfg := testConfig()
	hcfg := memBoundHier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier, err := mem.NewHierarchy(hcfg)
		if err != nil {
			b.Fatal(err)
		}
		core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles, err := Drain(core, tr.Len())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(cycles), "cycles/op")
		}
	}
	b.ReportMetric(float64(tr.Len()), "insts/op")
}

// BenchmarkFusedCoreDrain measures the two-cluster (Core Fusion style)
// cycle loop: double-width window, cross-cluster bypass and SMU copy
// slots — the heaviest per-cycle configuration of the ooo engine.
func BenchmarkFusedCoreDrain(b *testing.B) {
	w, ok := workloads.ByName("hmmer")
	if !ok {
		b.Fatal("unknown workload hmmer")
	}
	tr := w.Trace(30_000)
	cfg := testConfig()
	cfg.Name = "test-fused"
	cfg.FetchWidth *= 2
	cfg.FrontWidth *= 2
	cfg.CommitWidth *= 2
	cfg.ROBSize *= 2
	cfg.LQSize *= 2
	cfg.SQSize *= 2
	cfg.Clusters = 2
	cfg.CrossClusterBypass = 2
	hcfg := testHier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier, err := mem.NewHierarchy(hcfg)
		if err != nil {
			b.Fatal(err)
		}
		core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Drain(core, tr.Len()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "insts/op")
}
