package ooo

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// drainBoth runs the same config over the same trace twice — once with
// event-driven skipping, once fully ticked — and returns both outcomes.
func drainBoth(t *testing.T, cfg Config, hcfg mem.HierarchyConfig, tr *trace.Trace) (skip, tick struct {
	cycles int64
	rpt    Report
	l1d    uint64
	l2     uint64
}) {
	t.Helper()
	runOne := func(ticked bool) (int64, Report, uint64, uint64) {
		hier, err := mem.NewHierarchy(hcfg)
		if err != nil {
			t.Fatal(err)
		}
		core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
		if err != nil {
			t.Fatal(err)
		}
		var now int64
		if ticked {
			now, err = DrainTicked(core, tr.Len())
		} else {
			now, err = Drain(core, tr.Len())
		}
		if err != nil {
			t.Fatalf("drain (ticked=%v): %v", ticked, err)
		}
		return now, core.Report(), hier.L1D.Stats.Accesses, hier.L2.Stats.Accesses
	}
	skip.cycles, skip.rpt, skip.l1d, skip.l2 = runOne(false)
	tick.cycles, tick.rpt, tick.l1d, tick.l2 = runOne(true)
	return skip, tick
}

func assertSkipExact(t *testing.T, name string, cfg Config, hcfg mem.HierarchyConfig, tr *trace.Trace) {
	t.Helper()
	skip, tick := drainBoth(t, cfg, hcfg, tr)
	if skip.cycles != tick.cycles {
		t.Errorf("%s: cycle counts diverge: skip=%d tick=%d", name, skip.cycles, tick.cycles)
	}
	if skip.rpt != tick.rpt {
		t.Errorf("%s: reports diverge:\n skip: %+v\n tick: %+v", name, skip.rpt, tick.rpt)
	}
	if skip.l1d != tick.l1d || skip.l2 != tick.l2 {
		t.Errorf("%s: cache access counts diverge: skip l1d=%d l2=%d, tick l1d=%d l2=%d",
			name, skip.l1d, skip.l2, tick.l1d, tick.l2)
	}
}

// The event-driven skip engine is byte-exact against the ticked engine
// over randomized programs and a spread of machine shapes: identical
// final cycle counts, identical reports (every counter, every CPI-stack
// bucket, every dispatch-stall cause), identical cache traffic.
func TestSkipVsTickDifferential(t *testing.T) {
	shapes := []struct {
		name string
		mut  func(*Config)
		hmut func(*mem.HierarchyConfig)
	}{
		{name: "baseline", mut: func(c *Config) {}},
		{name: "narrow", mut: func(c *Config) {
			c.FetchWidth, c.FrontWidth, c.IssueWidth, c.CommitWidth = 2, 2, 2, 2
			c.ROBSize, c.IQSize, c.LQSize, c.SQSize = 32, 12, 8, 8
		}},
		{name: "tiny-window", mut: func(c *Config) {
			c.ROBSize, c.IQSize = 8, 4
		}},
		{name: "slow-dram", mut: func(c *Config) {}, hmut: func(h *mem.HierarchyConfig) {
			h.DRAMLatency = 900
			h.L2.SizeBytes = 64 << 10
		}},
		{name: "clustered", mut: func(c *Config) {
			c.Clusters = 2
			c.CrossClusterBypass = 2
		}},
		{name: "clustered-slow-dram", mut: func(c *Config) {
			c.Clusters = 2
			c.CrossClusterBypass = 3
		}, hmut: func(h *mem.HierarchyConfig) {
			h.DRAMLatency = 600
		}},
	}
	traces := []*trace.Trace{
		loopTrace(300),
		randomTrace(1, 800),
		randomTrace(2, 800),
		randomTrace(3, 1500),
	}
	for _, sh := range shapes {
		cfg := testConfig()
		sh.mut(&cfg)
		hcfg := testHier()
		if sh.hmut != nil {
			sh.hmut(&hcfg)
		}
		for i, tr := range traces {
			assertSkipExact(t, sh.name+"/"+tr.Name+"-"+string(rune('0'+i)), cfg, hcfg, tr)
		}
	}
}

// chaseTrace and memBoundHier (the memory-bound worst case the cycle
// skipper exists for) live in bench_test.go, shared with
// BenchmarkMemoryBoundCycleSkip.

// A skipping drain actually skips: on a memory-bound pointer chase the
// number of simulated Cycle calls must be far below the cycle count.
// (Correctness is covered by the differential test; this pins that the
// optimisation is engaged at all, so a regression that silently
// disables skipping fails loudly rather than just running slow.)
func TestSkipEngagesOnMemoryBound(t *testing.T) {
	tr := chaseTrace(400)
	hier, err := mem.NewHierarchy(memBoundHier())
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(testConfig(), hier, NewTraceStream(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	var now, sim int64
	for !core.Done() {
		if next := core.NextEvent(now); next > now {
			core.SkipTo(now, next)
			now = next
			continue
		}
		core.Cycle(now)
		now++
		sim++
		if now > int64(tr.Len())*2000 {
			t.Fatalf("livelock: %d cycles, %d committed", now, core.Report().Committed)
		}
	}
	if sim*2 > now {
		t.Errorf("memory-bound chase simulated %d of %d cycles; skipping is not engaging", sim, now)
	}
	// The differential guarantee holds here too.
	assertSkipExact(t, "chase", testConfig(), memBoundHier(), tr)
}
