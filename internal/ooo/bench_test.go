package ooo

import (
	"testing"

	"repro/internal/hotblock"
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

// streamMissTrace builds a periodic L2-miss stream: a serial pointer
// chase over an L2-resident permutation ring whose 64 KiB footprint
// overflows the L1, traced from its timed region exactly like the
// workload kernels (the setup pass that links the ring is
// fast-forwarded). Every chase load misses the L1 and hits the L2 with
// the same latency, so the hierarchy response recurs with the loop —
// the case the periodic-miss precondition (probe-proven recurring
// misses, not all-hits) exists for.
func streamMissTrace(insts uint64) *trace.Trace {
	const base, slots, stride = 0x800000, 8192, 3121
	b := program.NewBuilder("streammiss")
	b.Li(isa.R16, base)
	b.Li(isa.R20, 0)
	b.Li(isa.R21, slots)
	b.Label("init")
	b.Addi(isa.R22, isa.R20, stride)
	b.Andi(isa.R22, isa.R22, slots-1)
	b.Shli(isa.R22, isa.R22, 3)
	b.Add(isa.R22, isa.R16, isa.R22)
	b.Shli(isa.R23, isa.R20, 3)
	b.Add(isa.R23, isa.R16, isa.R23)
	b.St(isa.R22, isa.R23, 0)
	b.Addi(isa.R20, isa.R20, 1)
	b.Blt(isa.R20, isa.R21, "init")
	b.Li(isa.R3, base)
	b.Li(isa.R2, int64(insts))
	b.Label("main")
	b.Label("chase")
	b.Ld(isa.R3, isa.R3, 0)
	b.Andi(isa.R5, isa.R3, 255)
	b.Add(isa.R4, isa.R4, isa.R5)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "chase")
	b.Halt()
	return trace.CaptureFromLabel(b.MustBuild(), "main", insts)
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

// steadyLoopTrace builds the cycle skipper's worst case and the
// hot-block replay engine's best case: a tight serially-dependent
// arithmetic loop. Every cycle makes progress (the dependence chain
// keeps the issue stage busy; NextEvent finds ~0 dead cycles), yet
// every iteration is identical — no memory traffic beyond I-fetch, no
// mispredicts once the predictor warms — so a timing template captures
// the steady state exactly.
func steadyLoopTrace(iters int64) *trace.Trace {
	b := program.NewBuilder("steadyloop")
	b.Li(isa.R1, 3)
	b.Li(isa.R2, iters)
	b.Label("loop")
	b.Add(isa.R3, isa.R3, isa.R1)
	b.Xori(isa.R4, isa.R3, 0x55)
	b.Add(isa.R5, isa.R4, isa.R3)
	b.Shri(isa.R6, isa.R5, 1)
	b.Add(isa.R3, isa.R6, isa.R3)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "loop")
	b.Halt()
	return trace.Capture(b.MustBuild(), 0)
}

// benchReplay drains tr on the test core with hot-block memoization on
// under knobs hc (replay) and off (noreplay). Both sides produce
// byte-identical reports (see TestHotBlockVsTickedDifferential), so the
// ratio is pure engine speedup.
func benchReplay(b *testing.B, tr *trace.Trace, hc hotblock.Config) {
	b.Helper()
	cfg := testConfig()
	hcfg := testHier()
	run := func(b *testing.B, replay bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			hier, err := mem.NewHierarchy(hcfg)
			if err != nil {
				b.Fatal(err)
			}
			core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
			if err != nil {
				b.Fatal(err)
			}
			var ctrs hotblock.Counters
			if replay && !core.EnableHotBlock(hc, &ctrs) {
				b.Fatal("EnableHotBlock declined")
			}
			cycles, err := Drain(core, tr.Len())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(cycles), "cycles/op")
				if replay {
					b.ReportMetric(float64(ctrs.Replays), "replays/op")
				}
			}
		}
		b.ReportMetric(float64(tr.Len()), "insts/op")
	}
	b.Run("noreplay", func(b *testing.B) { run(b, false) })
	b.Run("replay", func(b *testing.B) { run(b, true) })
}

// BenchmarkLoopSteadyState measures Drain on the steady arithmetic
// loop with hot-block memoization on (replay, default knobs) and off
// (noreplay). The noreplay side is event-driven skipping alone, which
// wins nothing here because a dependence-bound loop has no dead cycles
// to skip. The replay side is the headline perf signal of the hot-block
// work.
func BenchmarkLoopSteadyState(b *testing.B) {
	benchReplay(b, steadyLoopTrace(8000), hotblock.Config{})
}

// BenchmarkStreamingMissLoop measures the periodic-miss templates on a
// pure streaming loop, whose every iteration misses the L1: the all-hit
// rule would reject every span, so only the probe-proven recurring miss
// response lets it replay. It runs at the tests' short-span knobs
// (hbTestConfig); at the default span length the chase's L2 pattern
// does not recur and the loop never replays.
func BenchmarkStreamingMissLoop(b *testing.B) {
	benchReplay(b, streamMissTrace(20_000), hbTestConfig())
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
