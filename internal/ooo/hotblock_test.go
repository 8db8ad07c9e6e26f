package ooo

import (
	"encoding/json"
	"testing"

	"repro/internal/hotblock"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// hbTestConfig is an aggressive memoization config for tests: a block
// goes hot after 4 sightings and spans close after 8 instructions, so
// even short test loops exercise capture, replay, and invalidation.
func hbTestConfig() hotblock.Config {
	return hotblock.Config{Threshold: 4, MinSpanInsts: 8}
}

// hbOutcome is everything observable about a finished run that the
// replay engine could possibly perturb: the final clock, the full core
// report (every counter, every CPI-stack bucket), the complete cache
// statistics of all three caches, prefetch and DRAM traffic, the
// predictor's lookup/mispredict counters, and the dependence
// predictor's operation count (whose periodic clear makes it
// timing-relevant).
type hbOutcome struct {
	cycles     int64
	rpt        Report
	l1i        mem.CacheStats
	l1d        mem.CacheStats
	l2         mem.CacheStats
	prefetches uint64
	dram       uint64
	dirLook    uint64
	dirMiss    uint64
	tgtLook    uint64
	tgtMiss    uint64
	depOps     uint64
}

// drainOutcome runs cfg over tr in one of three engines — ticked,
// event-skipping, or event-skipping with hot-block replay — and
// returns the observable outcome.
func drainOutcome(t *testing.T, cfg Config, hcfg mem.HierarchyConfig, tr *trace.Trace, mode string, ctrs *hotblock.Counters) hbOutcome {
	t.Helper()
	hier, err := mem.NewHierarchy(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	switch mode {
	case "ticked":
		now, err = DrainTicked(core, tr.Len())
	case "skip":
		now, err = Drain(core, tr.Len())
	case "hotblock":
		if !core.EnableHotBlock(hbTestConfig(), ctrs) {
			t.Fatal("EnableHotBlock declined on an eligible core")
		}
		now, err = Drain(core, tr.Len())
	default:
		t.Fatalf("unknown drain mode %q", mode)
	}
	if err != nil {
		t.Fatalf("drain (%s): %v", mode, err)
	}
	o := hbOutcome{
		cycles:     now,
		rpt:        core.Report(),
		l1i:        hier.L1I.Stats,
		l1d:        hier.L1D.Stats,
		l2:         hier.L2.Stats,
		prefetches: hier.Prefetches,
		dram:       hier.DRAMAccesses,
	}
	if p := core.Predictor(); p != nil {
		o.dirLook, o.dirMiss = p.DirLookups, p.DirMispredict
		o.tgtLook, o.tgtMiss = p.TgtLookups, p.TgtMispredict
	}
	if core.dep != nil {
		o.depOps = core.dep.ops
	}
	return o
}

func assertHotBlockExact(t *testing.T, name string, cfg Config, hcfg mem.HierarchyConfig, tr *trace.Trace) {
	t.Helper()
	var ctrs hotblock.Counters
	hb := drainOutcome(t, cfg, hcfg, tr, "hotblock", &ctrs)
	tick := drainOutcome(t, cfg, hcfg, tr, "ticked", nil)
	if hb != tick {
		t.Errorf("%s: hotblock run diverges from ticked run\n  hotblock: %+v\n  ticked:   %+v\n  counters: %+v",
			name, hb, tick, ctrs)
	}
}

// The hot-block replay engine is byte-exact against the ticked engine
// over the same shape × trace matrix the skip engine is validated on:
// identical cycle counts, identical reports, identical cache traffic
// down to evictions and writebacks, identical predictor and dependence-
// predictor counters. The loop trace replays heavily; the random traces
// mostly exercise capture aborts, precondition misses, and squash
// invalidation (they mispredict and violate memory ordering).
func TestHotBlockVsTickedDifferential(t *testing.T) {
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
			assertHotBlockExact(t, sh.name+"/"+tr.Name+"-"+string(rune('0'+i)), cfg, hcfg, tr)
		}
	}
}

// A steady-state loop must actually replay — a regression that silently
// stops templates from arming (or preconditions from ever matching)
// would keep the differential green while losing the entire speedup.
func TestHotBlockEngagesOnSteadyLoop(t *testing.T) {
	var ctrs hotblock.Counters
	tr := loopTrace(2000)
	out := drainOutcome(t, testConfig(), testHier(), tr, "hotblock", &ctrs)
	if ctrs.Templates == 0 {
		t.Fatalf("steady loop armed no templates: %+v", ctrs)
	}
	if ctrs.Replays == 0 || ctrs.ReplayedCycles == 0 || ctrs.ReplayedInsts == 0 {
		t.Fatalf("steady loop never replayed: %+v", ctrs)
	}
	// The bulk of the run should be replayed, not ticked: the loop body
	// is uniform, so once the template arms nearly every iteration
	// matches.
	if 2*int64(ctrs.ReplayedCycles) < out.cycles {
		t.Errorf("replay coverage too low: %d of %d cycles replayed (%+v)",
			ctrs.ReplayedCycles, out.cycles, ctrs)
	}
	if ctrs.ReplayedInsts > out.rpt.Committed {
		t.Errorf("replayed %d insts but only %d committed", ctrs.ReplayedInsts, out.rpt.Committed)
	}
}

// Periodic-miss templates arm and replay on a single core: mcf's
// pointer chase and the stream-miss loop miss the L1 on every
// iteration, so the all-hit rule would refuse every span and only the
// probe-proven recurring miss response can arm them. Every template is
// therefore periodic and every replay a periodic-miss replay, and both
// runs must still match the ticked engine exactly. The per-reason
// precondition split must account for every refused replay.
func TestPeriodicMissTemplatesReplay(t *testing.T) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf missing")
	}
	for _, tr := range []*trace.Trace{w.Trace(20_000), streamMissTrace(20_000)} {
		var ctrs hotblock.Counters
		hb := drainOutcome(t, testConfig(), testHier(), tr, "hotblock", &ctrs)
		tick := drainOutcome(t, testConfig(), testHier(), tr, "ticked", nil)
		if hb != tick {
			t.Errorf("%s: hotblock run diverges from ticked run\n  hotblock: %+v\n  ticked:   %+v\n  counters: %+v",
				tr.Name, hb, tick, ctrs)
		}
		if ctrs.TemplatesPeriodic == 0 || ctrs.TemplatesPeriodic != ctrs.Templates {
			t.Errorf("%s: want only periodic-miss templates: %+v", tr.Name, ctrs)
		}
		if ctrs.Replays == 0 || ctrs.ReplayedCycles == 0 {
			t.Errorf("%s: periodic-miss templates never replayed: %+v", tr.Name, ctrs)
		}
		split := ctrs.PrecondWindow + ctrs.PrecondVector + ctrs.PrecondShape +
			ctrs.PrecondCache + ctrs.PrecondPred + ctrs.PrecondDep
		if split != ctrs.InvalidationsPrecond {
			t.Errorf("%s: precondition split sums to %d, InvalidationsPrecond = %d: %+v",
				tr.Name, split, ctrs.InvalidationsPrecond, ctrs)
		}
	}
}

// EnableHotBlock must decline ineligible cores instead of arming an
// engine whose preconditions can't see hook-injected latencies or
// sink-visible per-uop events.
func TestHotBlockDeclinesIneligibleCores(t *testing.T) {
	tr := loopTrace(10)
	hier, err := mem.NewHierarchy(testHier())
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(testConfig(), hier, NewTraceStream(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	core.SetEventSink(discardSink{}, 0)
	if core.EnableHotBlock(hbTestConfig(), nil) {
		t.Error("EnableHotBlock accepted a core with an event sink")
	}
	// And installing a sink after enabling tears the engine down.
	hier2, _ := mem.NewHierarchy(testHier())
	core2, err := NewCore(testConfig(), hier2, NewTraceStream(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !core2.EnableHotBlock(hbTestConfig(), nil) {
		t.Fatal("EnableHotBlock declined an eligible core")
	}
	core2.SetEventSink(discardSink{}, 0)
	if core2.HotBlockEnabled() {
		t.Error("hot-block engine survived SetEventSink")
	}
}

type discardSink struct{}

func (discardSink) Emit(metrics.Event) {}

// Replay must stay exact across squashes: randomized traces with
// memory-order violations and branch mispredicts invalidate templates
// mid-run, and the re-captured templates must still replay byte-
// identically. This fuzz target is the PR's randomized squash
// injection: violations and mispredicts are the squash sources the
// simulator has, and the trace generator produces both.
func FuzzHotBlockReplay(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(0))
	f.Add(int64(2), uint16(900), uint8(1))
	f.Add(int64(3), uint16(1200), uint8(2))
	f.Add(int64(4), uint16(600), uint8(3))
	f.Add(int64(5), uint16(1500), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, shape uint8) {
		n := 100 + int(steps)%1400
		tr := randomTrace(seed, n)
		cfg := testConfig()
		hcfg := testHier()
		switch shape % 5 {
		case 1:
			cfg.FetchWidth, cfg.FrontWidth, cfg.IssueWidth, cfg.CommitWidth = 2, 2, 2, 2
			cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize = 32, 12, 8, 8
		case 2:
			cfg.Clusters = 2
			cfg.CrossClusterBypass = 2
		case 3:
			hcfg.DRAMLatency = 700
			hcfg.L2.SizeBytes = 64 << 10
		case 4:
			// A tiny dependence predictor aliases heavily: more
			// violations, more squash-driven template invalidation.
			cfg.DepPredBits = 4
		}
		var ctrs hotblock.Counters
		hb := drainOutcome(t, cfg, hcfg, tr, "hotblock", &ctrs)
		tick := drainOutcome(t, cfg, hcfg, tr, "ticked", nil)
		if hb != tick {
			t.Fatalf("seed=%d n=%d shape=%d: hotblock diverges from ticked\n  hotblock: %+v\n  ticked:   %+v\n  counters: %+v",
				seed, n, shape%5, hb, tick, ctrs)
		}
	})
}

// Lockstep audit: the hot-block drain and a fully ticked oracle core
// advance side by side, and at every replay exit (and at the end) the
// two cores must agree on every observable — clock, commit count,
// report, fetch frontier, cache and predictor statistics. This pins the
// tentpole's audit obligation: a replayed region leaves the machine in
// exactly the state the ticked engine reaches at the same cycle, and
// NextEvent never jumps the clock into the middle of an armed template
// region (each skip lands on a top-of-cycle where the detector is
// consulted again before anything else happens).
func TestHotBlockReplayAuditLockstep(t *testing.T) {
	cfg := testConfig()
	hcfg := testHier()
	tr := loopTrace(1200)

	hierA, err := mem.NewHierarchy(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewCore(cfg, hierA, NewTraceStream(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ctrs hotblock.Counters
	if !a.EnableHotBlock(hbTestConfig(), &ctrs) {
		t.Fatal("EnableHotBlock declined")
	}
	hierB, err := mem.NewHierarchy(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCore(cfg, hierB, NewTraceStream(tr), nil)
	if err != nil {
		t.Fatal(err)
	}

	var now, bnow int64
	var lastProgress int64
	lastCommitted := a.Committed()
	limit := int64(tr.Len()+1000) * maxCyclesPerInst
	check := func(where string) {
		t.Helper()
		for bnow < now {
			b.Cycle(bnow)
			bnow++
		}
		if a.Committed() != b.Committed() {
			t.Fatalf("%s at cycle %d: committed %d (hotblock) vs %d (ticked)", where, now, a.Committed(), b.Committed())
		}
		if ap, bp := a.stream.(*TraceStream).Pos(), b.stream.(*TraceStream).Pos(); ap != bp {
			t.Fatalf("%s at cycle %d: fetch frontier %d (hotblock) vs %d (ticked)", where, now, ap, bp)
		}
		if a.rpt != b.rpt {
			t.Fatalf("%s at cycle %d: reports diverge\n  hotblock: %+v\n  ticked:   %+v", where, now, a.rpt, b.rpt)
		}
		if hierA.L1D.Stats != hierB.L1D.Stats || hierA.L2.Stats != hierB.L2.Stats || hierA.L1I.Stats != hierB.L1I.Stats {
			t.Fatalf("%s at cycle %d: cache stats diverge", where, now)
		}
		if a.pred != nil && (a.pred.DirLookups != b.pred.DirLookups || a.pred.DirMispredict != b.pred.DirMispredict ||
			a.pred.TgtLookups != b.pred.TgtLookups || a.pred.TgtMispredict != b.pred.TgtMispredict) {
			t.Fatalf("%s at cycle %d: predictor stats diverge", where, now)
		}
	}
	replays := 0
	for !a.Done() {
		if c := a.Committed(); c != lastCommitted {
			lastCommitted, lastProgress = c, now
		}
		if now-lastProgress > LivelockWindow || now > limit {
			t.Fatalf("livelock at cycle %d (%d committed)", now, lastCommitted)
		}
		if end, ok := a.hotblockTop(now, lastProgress, limit); ok {
			now = end
			lastCommitted = a.Committed()
			lastProgress = a.lastCommitAt + 1
			replays++
			check("replay exit")
			continue
		}
		if next := a.NextEvent(now, nil); next > now {
			if w := lastProgress + LivelockWindow + 1; next > w {
				next = w
			}
			if next > limit+1 {
				next = limit + 1
			}
			a.SkipTo(now, next)
			now = next
			continue
		}
		a.Cycle(now)
		now++
	}
	if replays == 0 {
		t.Fatal("audit vacuous: no replays engaged")
	}
	check("final")
	if !b.Done() {
		t.Fatalf("ticked oracle not done at cycle %d", now)
	}
}

// The RunTraceWith plumbing: DisableHotBlock and the process-wide
// default must both force the plain engine, and all three paths must
// produce identical summaries.
func TestRunTraceWithHotBlockKnobs(t *testing.T) {
	cfg := testConfig()
	hcfg := testHier()
	tr := loopTrace(500)

	var ctrs hotblock.Counters
	hb := hbTestConfig()
	on, err := RunTraceWith(cfg, hcfg, tr, RunOptions{HotBlockConfig: &hb, HotBlock: &ctrs})
	if err != nil {
		t.Fatal(err)
	}
	if ctrs.Replays == 0 {
		t.Fatalf("hot-block run never replayed: %+v", ctrs)
	}
	off, err := RunTraceWith(cfg, hcfg, tr, RunOptions{DisableHotBlock: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "flag-off", on, off)

	hotblock.SetDefaultDisabled(true)
	defer hotblock.SetDefaultDisabled(false)
	var ctrs2 hotblock.Counters
	def, err := RunTraceWith(cfg, hcfg, tr, RunOptions{HotBlockConfig: &hb, HotBlock: &ctrs2})
	if err != nil {
		t.Fatal(err)
	}
	if ctrs2 != (hotblock.Counters{}) {
		t.Errorf("process-wide disable still ran the engine: %+v", ctrs2)
	}
	assertSameRun(t, "default-off", on, def)
}

// assertSameRun compares two run summaries through the same JSON
// encoding the export harness emits, so any divergence a user could
// see in `-format json` output fails here.
func assertSameRun(t *testing.T, name string, a, b stats.Run) {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("%s: summaries diverge\n  a: %s\n  b: %s", name, aj, bj)
	}
}
