package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func mustMachine(tb testing.TB, cfg config.Machine, tr *trace.Trace) *Machine {
	tb.Helper()
	m, err := NewMachine(cfg, tr)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func mustDrainM(tb testing.TB, m *Machine) int64 {
	tb.Helper()
	cycles, err := m.Drain()
	if err != nil {
		tb.Fatal(err)
	}
	return cycles
}

func drainNew(tb testing.TB, cfg config.Machine, tr *trace.Trace) int64 {
	tb.Helper()
	return mustDrainM(tb, mustMachine(tb, cfg, tr))
}

func wkTrace(t *testing.T, name string, n uint64) *trace.Trace {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	return w.Trace(n)
}

// Every workload commits completely under Fg-STP on both presets.
func TestFgstpCommitsEverything(t *testing.T) {
	for _, preset := range []config.Machine{config.Small(), config.Medium()} {
		for _, w := range workloads.All() {
			tr := w.Trace(8_000)
			m := mustMachine(t, preset, tr)
			r := m.Summarize(mustDrainM(t, m))
			if r.Insts != uint64(tr.Len()) {
				t.Errorf("%s/%s: committed %d of %d", preset.Name, w.Name, r.Insts, tr.Len())
			}
			if r.IPC() <= 0 || r.IPC() > 8 {
				t.Errorf("%s/%s: implausible IPC %.3f", preset.Name, w.Name, r.IPC())
			}
		}
	}
}

// Per-core committed counts sum to the trace (replicas extra).
func TestFgstpCommitAccounting(t *testing.T) {
	tr := wkTrace(t, "milc", 12_000)
	m := mustMachine(t, config.Medium(), tr)
	mustDrainM(t, m)
	c0, r0 := m.CommittedOf(0)
	c1, r1 := m.CommittedOf(1)
	if c0+c1 != uint64(tr.Len()) {
		t.Errorf("core commits %d+%d != %d", c0, c1, tr.Len())
	}
	if r0+r1 != m.Steerer().Replicated {
		t.Errorf("replica commits %d+%d != steered replicas %d",
			r0, r1, m.Steerer().Replicated)
	}
}

// Determinism: two runs of the same trace take identical cycle counts.
func TestFgstpDeterministic(t *testing.T) {
	tr := wkTrace(t, "omnetpp", 10_000)
	a := drainNew(t, config.Medium(), tr)
	b := drainNew(t, config.Medium(), tr)
	if a != b {
		t.Errorf("nondeterministic: %d vs %d cycles", a, b)
	}
}

// Cross-core memory dependence speculation: a workload with tight
// store→load recurrences must complete correctly and train the
// load-wait table rather than squash forever.
func TestFgstpCrossCoreMemDeps(t *testing.T) {
	// A kernel designed to create cross-core store→load pairs: two
	// interleaved accumulator chains hitting the same addresses.
	b := program.NewBuilder("memdep")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, 1500)
	b.Label("main")
	b.Label("loop")
	b.Ld(isa.R3, isa.R1, 0)
	b.Addi(isa.R3, isa.R3, 1)
	b.St(isa.R3, isa.R1, 0)
	b.Ld(isa.R4, isa.R1, 8)
	b.Addi(isa.R4, isa.R4, 2)
	b.St(isa.R4, isa.R1, 8)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "loop")
	b.Halt()
	tr := trace.CaptureFromLabel(b.MustBuild(), "main", 0)
	m := mustMachine(t, config.Medium(), tr)
	mustDrainM(t, m)
	if m.nextCommit != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", m.nextCommit, tr.Len())
	}
	// The run must not squash proportionally to iterations (learning).
	if m.GlobalSquashes > 200 {
		t.Errorf("%d global squashes over 1500 iterations; load-wait table not learning",
			m.GlobalSquashes)
	}
}

// Squash recovery: with speculation on and a violation-heavy kernel,
// the committed stream is still complete and squashes were observed.
func TestFgstpViolationRecovery(t *testing.T) {
	b := program.NewBuilder("viol")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, 640)
	b.Li(isa.R3, 5)
	b.Li(isa.R9, 120)
	b.Label("main")
	b.Label("loop")
	// Store address resolves behind a divide; the same-address load
	// speculates ahead.
	b.Div(isa.R4, isa.R2, isa.R3)
	b.Mul(isa.R4, isa.R4, isa.R3)
	b.Add(isa.R5, isa.R1, isa.R4)
	b.St(isa.R3, isa.R5, 0)
	b.Ld(isa.R6, isa.R1, 640)
	b.Add(isa.R7, isa.R6, isa.R7)
	b.Addi(isa.R9, isa.R9, -1)
	b.Bne(isa.R9, isa.R0, "loop")
	b.Halt()
	tr := trace.CaptureFromLabel(b.MustBuild(), "main", 0)
	m := mustMachine(t, config.Medium(), tr)
	mustDrainM(t, m)
	if m.nextCommit != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d after squashes", m.nextCommit, tr.Len())
	}
	total := m.GlobalSquashes
	if total == 0 {
		t.Log("no squashes observed (steering may have kept the pair local)")
	}
}

// Ablations must order correctly on communication-sensitive work:
// higher comm latency is never faster.
func TestFgstpCommLatencyMonotone(t *testing.T) {
	tr := wkTrace(t, "hmmer", 15_000)
	var prev int64
	for i, lat := range []int{1, 4, 16} {
		cfg := config.Medium()
		cfg.FgSTP.CommLatency = lat
		cycles := drainNew(t, cfg, tr)
		if i > 0 && cycles < prev {
			t.Errorf("comm latency %d ran faster (%d) than lower latency (%d)",
				lat, cycles, prev)
		}
		prev = cycles
	}
}

// Naive steering must not beat affinity steering on a chain-heavy
// workload.
func TestFgstpSteeringPolicyOrdering(t *testing.T) {
	tr := wkTrace(t, "hmmer", 15_000)
	run := func(policy string) int64 {
		cfg := config.Medium()
		cfg.FgSTP.Steering = policy
		return drainNew(t, cfg, tr)
	}
	affinity := run("affinity")
	rr := run("roundrobin")
	if rr < affinity {
		t.Errorf("round-robin steering (%d cycles) beat affinity (%d)", rr, affinity)
	}
}

// A tiny lookahead window must not outperform the default.
func TestFgstpWindowMonotone(t *testing.T) {
	tr := wkTrace(t, "libquantum", 15_000)
	small := config.Medium()
	small.FgSTP.Window = 32
	big := config.Medium()
	cyclesSmall := drainNew(t, small, tr)
	cyclesBig := drainNew(t, big, tr)
	if cyclesBig > cyclesSmall {
		t.Errorf("window 512 (%d cycles) slower than window 32 (%d)", cyclesBig, cyclesSmall)
	}
}

// Conservative memory speculation completes correctly with zero
// violations.
func TestFgstpConservativeNoViolations(t *testing.T) {
	tr := wkTrace(t, "omnetpp", 10_000)
	cfg := config.Medium()
	cfg.FgSTP.DepSpeculation = false
	m := mustMachine(t, cfg, tr)
	mustDrainM(t, m)
	if m.nextCommit != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", m.nextCommit, tr.Len())
	}
	if m.CrossViolations != 0 {
		t.Errorf("conservative mode had %d cross-core violations", m.CrossViolations)
	}
}

// Perfect (oracle) disambiguation: no violations either, and at least
// as fast as conservative.
func TestFgstpOracleDisambiguation(t *testing.T) {
	tr := wkTrace(t, "omnetpp", 10_000)

	oracle := config.Medium()
	oracle.FgSTP.DepPredBits = -1
	mo := mustMachine(t, oracle, tr)
	co := mustDrainM(t, mo)
	if mo.CrossViolations != 0 {
		t.Errorf("oracle mode had %d violations", mo.CrossViolations)
	}

	conservative := config.Medium()
	conservative.FgSTP.DepSpeculation = false
	cc := drainNew(t, conservative, tr)
	if co > cc {
		t.Errorf("oracle (%d cycles) slower than conservative (%d)", co, cc)
	}
}

// The summary must expose the characterisation counters E8 needs.
func TestFgstpSummaryCounters(t *testing.T) {
	tr := wkTrace(t, "perlbench", 10_000)
	m := mustMachine(t, config.Medium(), tr)
	cycles := mustDrainM(t, m)
	r := m.Summarize(cycles)
	for _, key := range []string{"steer_core1_frac", "replicated_frac",
		"remote_dep_frac", "comm_per_kinst", "bpred_accuracy"} {
		if !r.Has(key) {
			t.Errorf("summary missing %q", key)
		}
	}
	if f := r.Get("steer_core1_frac"); f <= 0 || f >= 1 {
		t.Errorf("steer fraction %f out of (0,1)", f)
	}
}

// Empty machine edge: a one-instruction trace runs.
func TestFgstpTinyTrace(t *testing.T) {
	b := program.NewBuilder("tiny")
	b.Label("main")
	b.Li(isa.R1, 7)
	b.Addi(isa.R2, isa.R1, 1)
	b.Halt()
	tr := trace.CaptureFromLabel(b.MustBuild(), "main", 0)
	m := mustMachine(t, config.Small(), tr)
	mustDrainM(t, m)
	if m.nextCommit != uint64(tr.Len()) {
		t.Errorf("tiny trace committed %d of %d", m.nextCommit, tr.Len())
	}
}

func TestStoreTracker(t *testing.T) {
	st := newStoreTracker()
	if st.anyUnissuedBelow(100) {
		t.Error("empty tracker reports pending stores")
	}
	st.add(5)
	st.add(9)
	st.add(12)
	if !st.anyUnissuedBelow(10) {
		t.Error("must see store 5 below 10")
	}
	if st.anyUnissuedBelow(5) {
		t.Error("nothing below 5")
	}
	st.markIssued(5)
	if !st.anyUnissuedBelow(10) {
		t.Error("store 9 still pending")
	}
	st.markIssued(9)
	if st.anyUnissuedBelow(10) {
		t.Error("all below 10 issued")
	}
	var seen []uint64
	st.advance()
	for i := st.head; i < len(st.pend); i++ {
		if e := st.pend[i]; e&^issuedBit < 100 && e&issuedBit == 0 {
			seen = append(seen, e&^issuedBit)
		}
	}
	if len(seen) != 1 || seen[0] != 12 {
		t.Errorf("unissued below 100 = %v, want [12]", seen)
	}
	st.rewind(12)
	if st.anyUnissuedBelow(100) {
		t.Error("rewind must drop store 12")
	}
	// Redelivery after rewind.
	st.add(12)
	if !st.anyUnissuedBelow(100) {
		t.Error("re-added store missing")
	}
}

// Squash while the sequencer is blocked on a mispredicted branch: the
// machine must recover and complete (exercises the rewind/blocked-
// branch interaction).
func TestFgstpSquashDuringBranchBlock(t *testing.T) {
	b := program.NewBuilder("sqbr")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, 640)
	b.Li(isa.R3, 5)
	b.Li(isa.R9, 300)
	b.Li(isa.R12, 0x517CC1B7)
	b.Label("main")
	b.Label("loop")
	// Violation-prone store/load pair...
	b.Div(isa.R4, isa.R2, isa.R3)
	b.Mul(isa.R4, isa.R4, isa.R3)
	b.Add(isa.R5, isa.R1, isa.R4)
	b.St(isa.R3, isa.R5, 0)
	b.Ld(isa.R6, isa.R1, 640)
	// ...interleaved with a chaotic branch to keep the sequencer
	// blocking on mispredicts around the squashes.
	b.Mul(isa.R12, isa.R12, isa.R12)
	b.Shri(isa.R7, isa.R12, 13)
	b.Andi(isa.R7, isa.R7, 1)
	b.Beq(isa.R7, isa.R0, "even")
	b.Addi(isa.R8, isa.R8, 1)
	b.Label("even")
	b.Addi(isa.R9, isa.R9, -1)
	b.Bne(isa.R9, isa.R0, "loop")
	b.Halt()
	tr := trace.CaptureFromLabel(b.MustBuild(), "main", 0)
	m := mustMachine(t, config.Medium(), tr)
	mustDrainM(t, m)
	if m.nextCommit != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", m.nextCommit, tr.Len())
	}
}

// Repeated squashes at the same point must make forward progress (the
// load-wait table guarantees the same violation cannot recur forever).
func TestFgstpForwardProgressUnderSquash(t *testing.T) {
	tr := wkTrace(t, "bzip2", 20_000)
	cfg := config.Medium()
	cfg.FgSTP.DepPredBits = 4 // tiny table: heavy aliasing
	m := mustMachine(t, cfg, tr)
	cycles := mustDrainM(t, m)
	if m.nextCommit != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", m.nextCommit, tr.Len())
	}
	if cycles <= 0 {
		t.Fatal("no progress")
	}
}

// The channel statistics must reconcile with steering: every remote
// dependence resolves through at most one transfer per (producer,
// destination) pair.
func TestFgstpChannelTrafficBounded(t *testing.T) {
	tr := wkTrace(t, "soplex", 15_000)
	m := mustMachine(t, config.Medium(), tr)
	mustDrainM(t, m)
	transfers := m.ChannelTransfers()
	remoteDeps := m.Steerer().RemoteDeps
	// Transfers can exceed remote deps only through squash re-grants;
	// allow that slack but catch runaway duplication.
	if transfers > 2*remoteDeps+100 {
		t.Errorf("transfers %d far exceed remote deps %d", transfers, remoteDeps)
	}
}

// Store-set mode: completes every trace, converges (bounded squashes),
// and gates loads on specific stores.
func TestFgstpStoreSetsMode(t *testing.T) {
	for _, name := range []string{"omnetpp", "hmmer"} {
		tr := wkTrace(t, name, 12_000)
		cfg := config.Medium()
		cfg.FgSTP.UseStoreSets = true
		m := mustMachine(t, cfg, tr)
		mustDrainM(t, m)
		if m.nextCommit != uint64(tr.Len()) {
			t.Fatalf("%s: committed %d of %d", name, m.nextCommit, tr.Len())
		}
		if m.GlobalSquashes > uint64(tr.Len()/20) {
			t.Errorf("%s: %d squashes — store sets not converging", name, m.GlobalSquashes)
		}
	}
}

// CPI-stack accounting: every simulated cycle of each core lands in
// exactly one attribution bucket, so the six buckets sum to the core's
// total cycles — the invariant the observability exports rely on.
func TestFgstpCycleAttributionSums(t *testing.T) {
	for _, name := range []string{"milc", "gobmk"} {
		tr := wkTrace(t, name, 10_000)
		m := mustMachine(t, config.Medium(), tr)
		cycles := mustDrainM(t, m)
		for i, rpt := range m.CoreReports() {
			if rpt.Cycles != cycles {
				t.Errorf("%s core%d: report cycles %d != machine cycles %d",
					name, i, rpt.Cycles, cycles)
			}
			if got := rpt.AttributedCycles(); got != rpt.Cycles {
				t.Errorf("%s core%d: attributed %d cycles of %d (active %d, "+
					"fetch-starved %d, issue-wait %d, channel-wait %d, execute %d, "+
					"commit-blocked %d)",
					name, i, got, rpt.Cycles, rpt.CyclesActive, rpt.CyclesFetchStarved,
					rpt.CyclesIssueWait, rpt.CyclesChannelWait, rpt.CyclesExecute,
					rpt.CyclesCommitBlocked)
			}
		}
	}
}

// The event stream reconciles with machine statistics: one steer per
// delivered instruction net of squash redeliveries, one commit per
// retired uop, squash events matching the global squash count — and a
// traced run stays cycle-identical to an untraced one.
func TestFgstpEventStream(t *testing.T) {
	tr := wkTrace(t, "omnetpp", 10_000)
	base := drainNew(t, config.Medium(), tr)

	rec := &metrics.Recorder{}
	m := mustMachine(t, config.Medium(), tr)
	m.SetEventSink(rec)
	cycles := mustDrainM(t, m)
	if cycles != base {
		t.Errorf("tracing perturbed timing: %d vs %d cycles", cycles, base)
	}
	if rec.Dropped != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped)
	}
	counts := map[metrics.Kind]uint64{}
	var globalSquashes uint64
	for _, ev := range rec.Events {
		counts[ev.Kind]++
		if ev.Kind == metrics.EvSquash && ev.Core == metrics.MachineScope {
			globalSquashes++
		}
	}
	if got, want := counts[metrics.EvSteer], m.seq.Delivered; got != want {
		t.Errorf("steer events %d != delivered %d", got, want)
	}
	if got, want := counts[metrics.EvReplicate], m.seq.ReplicaDeliveries; got != want {
		t.Errorf("replicate events %d != replica deliveries %d", got, want)
	}
	if globalSquashes != m.GlobalSquashes {
		t.Errorf("machine-scope squash events %d != global squashes %d",
			globalSquashes, m.GlobalSquashes)
	}
	rpt := m.CoreReports()
	if got, want := counts[metrics.EvCommit], rpt[0].Committed+rpt[0].Replicas+rpt[1].Committed+rpt[1].Replicas; got != want {
		t.Errorf("commit events %d != commits %d", got, want)
	}
	if counts[metrics.EvIssue] == 0 {
		t.Error("no issue events recorded")
	}
}
