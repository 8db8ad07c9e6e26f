package ooo

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
)

// testConfig is a 4-wide medium-ish core for unit tests.
func testConfig() Config {
	return Config{
		Name:       "test",
		FetchWidth: 4, FrontWidth: 4, IssueWidth: 4, CommitWidth: 4,
		ROBSize: 128, IQSize: 36, LQSize: 32, SQSize: 24,
		IntALU: 3, IntMulDiv: 1, FPU: 2, LoadPorts: 2, StorePorts: 1,
		FrontendDepth: 5,
		Clusters:      1,
		Predictor:     bpred.Default(),
		DepPredBits:   11,
	}
}

func testHier() mem.HierarchyConfig {
	return mem.HierarchyConfig{
		L1I:         mem.CacheConfig{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4, LatencyCycles: 3},
		L1D:         mem.CacheConfig{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4, LatencyCycles: 3},
		L2:          mem.CacheConfig{Name: "l2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 8, LatencyCycles: 12},
		DRAMLatency: 150,
	}
}

// mustCore builds a test core over a fresh test hierarchy; the configs
// are valid by construction.
func mustCore(tb testing.TB, cfg Config, tr *trace.Trace) *Core {
	tb.Helper()
	hier, err := mem.NewHierarchy(testHier())
	if err != nil {
		tb.Fatalf("NewHierarchy: %v", err)
	}
	core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
	if err != nil {
		tb.Fatalf("NewCore: %v", err)
	}
	return core
}

// mustDrain drains a core that must complete without livelock.
func mustDrain(tb testing.TB, core *Core, traceLen int) int64 {
	tb.Helper()
	now, err := Drain(core, traceLen)
	if err != nil {
		tb.Fatalf("Drain: %v", err)
	}
	return now
}

func run(t *testing.T, cfg Config, tr *trace.Trace) (stats int64, rpt Report) {
	t.Helper()
	core := mustCore(t, cfg, tr)
	now := mustDrain(t, core, tr.Len())
	return now, core.Report()
}

func captureAsm(t *testing.T, name, src string) *trace.Trace {
	t.Helper()
	return trace.Capture(program.MustAssemble(name, src), 0)
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.Clusters = 3 },
		func(c *Config) { c.DepPredBits = 30 },
		func(c *Config) { c.ExtraMispredictPenalty = -1 },
		func(c *Config) { c.Predictor.Kind = "bogus" },
	}
	for i, m := range mutations {
		c := testConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCommitsWholeTrace(t *testing.T) {
	tr := captureAsm(t, "whole", `
		li r1, 100
	loop:
		addi r2, r2, 3
		mul r3, r2, r2
		addi r1, r1, -1
		bne r1, r0, loop
		halt`)
	_, rpt := run(t, testConfig(), tr)
	if rpt.Committed != uint64(tr.Len()) {
		t.Errorf("committed %d of %d", rpt.Committed, tr.Len())
	}
	if rpt.Replicas != 0 {
		t.Errorf("replicas %d on a plain core", rpt.Replicas)
	}
}

// A serial dependence chain of 1-cycle ops commits ~1 IPC regardless of
// width: the dataflow limit.
func TestSerialChainIPC(t *testing.T) {
	b := program.NewBuilder("chain")
	b.Li(isa.R1, 1)
	const n = 2000
	for i := 0; i < n; i++ {
		b.Add(isa.R1, isa.R1, isa.R1)
	}
	b.Halt()
	tr := trace.Capture(b.MustBuild(), 0)
	cycles, rpt := run(t, testConfig(), tr)
	if rpt.Committed != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", rpt.Committed, tr.Len())
	}
	ipc := float64(rpt.Committed) / float64(cycles)
	if ipc < 0.85 || ipc > 1.1 {
		t.Errorf("serial chain IPC = %.3f, want ~1", ipc)
	}
}

// Independent work saturates the machine width (3 ALUs here).
func TestParallelWorkIPC(t *testing.T) {
	b := program.NewBuilder("wide")
	const n = 1500
	for i := 0; i < n; i++ {
		r := isa.Reg(1 + i%8)
		b.Addi(r, isa.R0, int64(i))
	}
	b.Halt()
	tr := trace.Capture(b.MustBuild(), 0)
	cycles, rpt := run(t, testConfig(), tr)
	ipc := float64(rpt.Committed) / float64(cycles)
	if ipc < 2.2 {
		t.Errorf("independent-op IPC = %.3f, want near 3 (ALU limit)", ipc)
	}
}

// A narrower machine must be slower on wide parallel work.
func TestWidthMatters(t *testing.T) {
	b := program.NewBuilder("w")
	for i := 0; i < 1000; i++ {
		b.Addi(isa.Reg(1+i%16), isa.R0, 7)
	}
	b.Halt()
	tr := trace.Capture(b.MustBuild(), 0)

	wide, _ := run(t, testConfig(), tr)
	narrow := testConfig()
	narrow.FetchWidth, narrow.FrontWidth, narrow.IssueWidth, narrow.CommitWidth = 1, 1, 1, 1
	narrowCycles, _ := run(t, narrow, tr)
	if narrowCycles <= wide {
		t.Errorf("1-wide (%d cycles) not slower than 4-wide (%d)", narrowCycles, wide)
	}
	if float64(narrowCycles) < 1.8*float64(wide) {
		t.Errorf("1-wide only %.2fx slower than 4-wide; resource model suspect",
			float64(narrowCycles)/float64(wide))
	}
}

// Long-latency divides serialise when dependent; unpipelined unit also
// serialises independent divides.
func TestUnpipelinedDivide(t *testing.T) {
	b := program.NewBuilder("div")
	b.Li(isa.R1, 1000)
	b.Li(isa.R2, 3)
	const n = 50
	for i := 0; i < n; i++ {
		// Independent divides, but only one unpipelined unit.
		b.Div(isa.Reg(3+i%4), isa.R1, isa.R2)
	}
	b.Halt()
	tr := trace.Capture(b.MustBuild(), 0)
	cycles, _ := run(t, testConfig(), tr)
	// Each divide occupies the lone unit for 20 cycles.
	if cycles < int64(n*20) {
		t.Errorf("%d divides finished in %d cycles; unpipelined unit not modelled", n, cycles)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	src := `
		li r1, 0x100000
		li r4, 500
	loop:
		st r4, 0(r1)
		ld r2, 0(r1)
		add r4, r2, r4
		addi r4, r4, -1
		bne r4, r0, done
		j loop
	done:
		halt`
	// Note: loop actually exits promptly; build a simpler forwarding
	// pattern instead.
	_ = src
	b := program.NewBuilder("fwd")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, 7)
	const n = 300
	for i := 0; i < n; i++ {
		b.St(isa.R2, isa.R1, 0)
		b.Ld(isa.R3, isa.R1, 0)
	}
	b.Halt()
	tr := trace.Capture(b.MustBuild(), 0)
	_, rpt := run(t, testConfig(), tr)
	if rpt.LoadsForwarded < n*9/10 {
		t.Errorf("forwarded %d of %d same-address loads", rpt.LoadsForwarded, n)
	}
}

// A store whose address resolves late (behind a divide) must trigger a
// memory-order violation when a younger same-address load speculates —
// and the squash must preserve the committed instruction count.
func TestMemoryOrderViolationAndRecovery(t *testing.T) {
	b := program.NewBuilder("viol")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, 640)
	b.Li(isa.R3, 5)
	const n = 40
	for i := 0; i < n; i++ {
		// Address of the store depends on a divide: resolves late.
		b.Div(isa.R4, isa.R2, isa.R3) // 128
		b.Mul(isa.R4, isa.R4, isa.R3) // 640
		b.Add(isa.R5, isa.R1, isa.R4) // 0x100280
		b.St(isa.R3, isa.R5, 0)       // store late
		b.Ld(isa.R6, isa.R1, 640)     // same address, issues early
		b.Add(isa.R7, isa.R6, isa.R7) // consume
	}
	b.Halt()
	tr := trace.Capture(b.MustBuild(), 0)

	cfg := testConfig()
	cfg.DepPredBits = 11 // speculative
	_, rpt := run(t, cfg, tr)
	if rpt.MemViolations == 0 {
		t.Error("expected at least one memory-order violation with speculation")
	}
	if rpt.Committed != uint64(tr.Len()) {
		t.Errorf("committed %d of %d after squashes", rpt.Committed, tr.Len())
	}

	// Conservative disambiguation: no violations, but correctness too.
	cfg.DepPredBits = 0
	_, rptC := run(t, cfg, tr)
	if rptC.MemViolations != 0 {
		t.Errorf("conservative mode had %d violations", rptC.MemViolations)
	}
	if rptC.Committed != uint64(tr.Len()) {
		t.Errorf("conservative committed %d of %d", rptC.Committed, tr.Len())
	}

	// Perfect disambiguation: no violations, no conservatism.
	cfg.DepPredBits = -1
	cyclesP, rptP := run(t, cfg, tr)
	if rptP.MemViolations != 0 {
		t.Errorf("oracle mode had %d violations", rptP.MemViolations)
	}
	if cyclesP <= 0 {
		t.Error("oracle run did not finish")
	}
}

// The load-wait table must learn: over a long run, violations stop
// recurring at the same PC.
func TestDepPredLearns(t *testing.T) {
	b := program.NewBuilder("learn")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, 640)
	b.Li(isa.R3, 5)
	b.Li(isa.R9, 200)
	b.Label("loop")
	b.Div(isa.R4, isa.R2, isa.R3)
	b.Mul(isa.R4, isa.R4, isa.R3)
	b.Add(isa.R5, isa.R1, isa.R4)
	b.St(isa.R3, isa.R5, 0)
	b.Ld(isa.R6, isa.R1, 640)
	b.Addi(isa.R9, isa.R9, -1)
	b.Bne(isa.R9, isa.R0, "loop")
	b.Halt()
	tr := trace.Capture(b.MustBuild(), 0)
	_, rpt := run(t, testConfig(), tr)
	// 200 iterations; the single static load must stop violating after
	// the table learns it.
	if rpt.MemViolations > 20 {
		t.Errorf("%d violations over 200 iterations; load-wait table not learning", rpt.MemViolations)
	}
	if rpt.MemViolations == 0 {
		t.Error("expected at least one cold violation")
	}
}

// Hard-to-predict branches must cost cycles relative to the same work
// with predictable branches.
func TestBranchMispredictCost(t *testing.T) {
	mk := func(chaotic bool) *trace.Trace {
		b := program.NewBuilder("br")
		b.Li(isa.R1, 12345)
		b.Li(isa.R2, 2000)
		b.Label("loop")
		if chaotic {
			// LCG bit decides the branch: near-random.
			b.Li(isa.R5, 6364136223846793005)
			b.Mul(isa.R1, isa.R1, isa.R5)
			b.Addi(isa.R1, isa.R1, 1442695040888963407)
			b.Shri(isa.R3, isa.R1, 61)
			b.Andi(isa.R3, isa.R3, 1)
		} else {
			b.Li(isa.R3, 0) // always not-taken
			b.Nop()
			b.Nop()
			b.Nop()
		}
		b.Bne(isa.R3, isa.R0, "skip")
		b.Addi(isa.R4, isa.R4, 1)
		b.Label("skip")
		b.Addi(isa.R2, isa.R2, -1)
		b.Bne(isa.R2, isa.R0, "loop")
		b.Halt()
		return trace.Capture(b.MustBuild(), 0)
	}
	predictable := mk(false)
	chaotic := mk(true)
	cp, rp := run(t, testConfig(), predictable)
	cc, rc := run(t, testConfig(), chaotic)
	if rc.BranchMispredicts < 400 {
		t.Errorf("chaotic branch mispredicts = %d, want many", rc.BranchMispredicts)
	}
	if rp.BranchMispredicts > 100 {
		t.Errorf("predictable branch mispredicts = %d, want few", rp.BranchMispredicts)
	}
	cpi := float64(cp) / float64(predictable.Len())
	cci := float64(cc) / float64(chaotic.Len())
	if cci <= cpi {
		t.Errorf("chaotic CPI %.3f not worse than predictable %.3f", cci, cpi)
	}
}

// Cache misses must cost cycles: a pointer chase over a large footprint
// is slower per instruction than one fitting in L1.
func TestCacheMissCost(t *testing.T) {
	mk := func(words int64) *trace.Trace {
		b := program.NewBuilder("walk")
		b.Li(isa.R1, 0x200000)
		b.Li(isa.R2, 3000) // loads
		b.Li(isa.R3, 0)    // offset
		b.Label("loop")
		b.Add(isa.R4, isa.R1, isa.R3)
		b.Ld(isa.R5, isa.R4, 0)
		b.Addi(isa.R3, isa.R3, 64) // stride one line
		b.Slti(isa.R6, isa.R3, words*8)
		b.Bne(isa.R6, isa.R0, "noreset")
		b.Li(isa.R3, 0)
		b.Label("noreset")
		b.Addi(isa.R2, isa.R2, -1)
		b.Bne(isa.R2, isa.R0, "loop")
		b.Halt()
		return trace.Capture(b.MustBuild(), 0)
	}
	small := mk(512)     // 4 KiB: L1-resident
	large := mk(1 << 20) // 8 MiB: DRAM-bound
	cs, _ := run(t, testConfig(), small)
	cl, _ := run(t, testConfig(), large)
	cpiS := float64(cs) / float64(small.Len())
	cpiL := float64(cl) / float64(large.Len())
	if cpiL < 1.5*cpiS {
		t.Errorf("DRAM-bound CPI %.2f vs L1-bound %.2f; memory system too forgiving", cpiL, cpiS)
	}
}

// Clustered (fused) configuration must run correctly and the
// cross-cluster bypass must cost cycles on dependent chains.
func TestClusteredCore(t *testing.T) {
	b := program.NewBuilder("cl")
	b.Li(isa.R1, 1)
	for i := 0; i < 2000; i++ {
		b.Add(isa.R1, isa.R1, isa.R1)
	}
	b.Halt()
	tr := trace.Capture(b.MustBuild(), 0)

	cfg := testConfig()
	cfg.Clusters = 2
	cfg.CrossClusterBypass = 2
	cycles, rpt := run(t, cfg, tr)
	if rpt.Committed != uint64(tr.Len()) {
		t.Fatalf("clustered core committed %d of %d", rpt.Committed, tr.Len())
	}
	// Dependence steering keeps the chain in one cluster, so the chain
	// should still be near 1 IPC.
	ipc := float64(rpt.Committed) / float64(cycles)
	if ipc < 0.7 {
		t.Errorf("clustered chain IPC %.3f; steering not keeping chains local", ipc)
	}
}

func TestCallReturnPrediction(t *testing.T) {
	src := `
		li r2, 300
	loop:
		call fn
		addi r2, r2, -1
		bne r2, r0, loop
		halt
	fn:
		addi r3, r3, 1
		ret`
	tr := captureAsm(t, "callret", src)
	_, rpt := run(t, testConfig(), tr)
	// After warmup the RAS must make returns free.
	if rpt.IndirectMispredicts > 5 {
		t.Errorf("indirect mispredicts = %d, want few (RAS)", rpt.IndirectMispredicts)
	}
	if rpt.Committed != uint64(tr.Len()) {
		t.Errorf("committed %d of %d", rpt.Committed, tr.Len())
	}
}

func TestReportStallAccounting(t *testing.T) {
	tr := captureAsm(t, "stall", `
		li r1, 2000
	loop:
		addi r1, r1, -1
		bne r1, r0, loop
		halt`)
	_, rpt := run(t, testConfig(), tr)
	if rpt.Fetched < uint64(tr.Len()) {
		t.Errorf("fetched %d < trace %d", rpt.Fetched, tr.Len())
	}
	if rpt.Issued < uint64(tr.Len()) {
		t.Errorf("issued %d < trace %d", rpt.Issued, tr.Len())
	}
}

func TestRunTraceSummary(t *testing.T) {
	tr := captureAsm(t, "sum", `
		li r1, 500
	loop:
		addi r1, r1, -1
		bne r1, r0, loop
		halt`)
	core := mustCore(t, testConfig(), tr)
	r := Summarize(core, tr, "single", mustDrain(t, core, tr.Len()))
	if r.Insts != uint64(tr.Len()) {
		t.Errorf("run insts %d, want %d", r.Insts, tr.Len())
	}
	if r.IPC() <= 0 {
		t.Error("non-positive IPC")
	}
	if r.Mode != "single" {
		t.Errorf("mode %q", r.Mode)
	}
	if r.Get("bpred_accuracy") == 0 {
		t.Error("missing bpred accuracy extra")
	}
}

func TestDepPredModes(t *testing.T) {
	p := NewDepPred(0)
	if !p.Conservative() || !p.MustWait(0x100) {
		t.Error("bits=0 must be conservative")
	}
	p = NewDepPred(-1)
	if !p.Perfect() || p.MustWait(0x100) {
		t.Error("bits=-1 must be perfect")
	}
	p = NewDepPred(8)
	if p.MustWait(0x100) {
		t.Error("untrained predictor must speculate")
	}
	p.Violation(0x100)
	if !p.MustWait(0x100) {
		t.Error("trained predictor must wait")
	}
	if p.MustWait(0x104) {
		t.Error("different PC must not alias in a 256-entry table")
	}
}

func TestDepPredClearDecays(t *testing.T) {
	p := NewDepPred(8)
	p.Violation(0x200)
	for i := 0; i < clearInterval+10; i++ {
		p.MustWait(0x999)
	}
	if p.MustWait(0x200) {
		t.Error("table must clear after the decay interval")
	}
}
