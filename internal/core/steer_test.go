package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/ooo"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func steerCfg() config.FgSTP {
	f := config.Medium().FgSTP
	return f
}

// steerWalk steers all of tr in order and hands each decision to visit
// (when non-nil) as it is made. Decisions live in a ring bounded by the
// lookahead window, so tests read them during the walk, as the
// sequencer does, rather than after it.
func steerWalk(cfg config.FgSTP, tr *trace.Trace, visit func(g uint64, inf steerInfo)) *steerer {
	s := newSteerer(cfg, 128, tr)
	for g := uint64(0); g < uint64(tr.Len()); g++ {
		inf := s.info(g)
		if visit != nil {
			visit(g, *inf)
		}
	}
	return s
}

// Steering totality: every instruction gets exactly one home core and
// decisions are kept stably while the window can still reach them.
func TestSteeringTotality(t *testing.T) {
	w, _ := workloads.ByName("perlbench")
	tr := w.Trace(10_000)
	cfg := steerCfg()
	s := newSteerer(cfg, 128, tr)
	seen := make([]steerInfo, tr.Len())
	for g := uint64(0); g < uint64(tr.Len()); g++ {
		seen[g] = *s.info(g)
		// Re-querying returns identical decisions (ring stability), back
		// to the oldest decision the window can reach.
		if g >= uint64(cfg.Window) {
			old := g - uint64(cfg.Window)
			if *s.info(old) != seen[old] {
				t.Fatalf("decision %d changed by the time %d was decided", old, g)
			}
		}
	}
	if s.next != uint64(tr.Len()) {
		t.Fatalf("decided %d of %d", s.next, tr.Len())
	}
	if s.Steered[0]+s.Steered[1] != uint64(tr.Len()) {
		t.Errorf("steered %d+%d != %d", s.Steered[0], s.Steered[1], tr.Len())
	}
	if len(s.ring) >= tr.Len() {
		t.Errorf("ring of %d slots for a %d-instruction trace at window %d: it should wrap", len(s.ring), tr.Len(), cfg.Window)
	}
}

// A decision the ring has overwritten is never handed out: asking for
// it panics rather than returning another instruction's dataflow.
func TestSteeringRingOverwritePanics(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	tr := w.Trace(5_000)
	s := steerWalk(steerCfg(), tr, nil)
	oldest := s.next - uint64(len(s.ring))
	s.info(oldest) // still held
	defer func() {
		if recover() == nil {
			t.Errorf("reading decision %d of %d with a %d-slot ring did not panic", oldest-1, s.next, len(s.ring))
		}
	}()
	s.info(oldest - 1)
}

// Load balance: the affinity policy keeps the split within reasonable
// bounds on every workload.
func TestSteeringBalance(t *testing.T) {
	for _, w := range workloads.All() {
		tr := w.Trace(20_000)
		s := steerWalk(steerCfg(), tr, nil)
		frac := float64(s.Steered[1]) / float64(tr.Len())
		if frac < 0.25 || frac > 0.75 {
			t.Errorf("%s: core-1 fraction %.2f outside [0.25, 0.75]", w.Name, frac)
		}
	}
}

// Dependence correctness: every steering decision's SrcDep must name
// the true most-recent producer of that register, and Remote must be
// set exactly when the producer's value is neither replicated nor on
// the consumer's core.
func TestSteeringDepsMatchDataflow(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	tr := w.Trace(8_000)

	type writer struct {
		gseq uint64
		home uint8
		both bool
		ok   bool
	}
	last := make(map[isa.Reg]writer)
	var buf [3]isa.Reg
	steerWalk(steerCfg(), tr, func(g uint64, inf steerInfo) {
		d := tr.At(int(g))
		for k, r := range d.Sources(buf[:0]) {
			dep := inf.deps[k]
			w, ok := last[r]
			if !ok {
				if dep.Producer != ooo.NoProducer {
					t.Fatalf("inst %d src %s: producer %d, want architectural", g, r, dep.Producer)
				}
				continue
			}
			if dep.Producer != w.gseq {
				t.Fatalf("inst %d src %s: producer %d, want %d", g, r, dep.Producer, w.gseq)
			}
			wantRemote := !w.both && w.home != inf.home
			if dep.Remote != wantRemote {
				t.Fatalf("inst %d src %s: remote=%v, want %v", g, r, dep.Remote, wantRemote)
			}
		}
		if d.HasDst() {
			last[d.Dst] = writer{gseq: g, home: inf.home, both: inf.replica, ok: true}
		}
	})
}

// Replication policy: replicas are only cheap pipelined register ops,
// never memory or control.
func TestReplicationOnlyCheapOps(t *testing.T) {
	for _, name := range []string{"milc", "sjeng", "omnetpp"} {
		w, _ := workloads.ByName(name)
		tr := w.Trace(10_000)
		steerWalk(steerCfg(), tr, func(g uint64, inf steerInfo) {
			if !inf.replica {
				return
			}
			switch tr.At(int(g)).Class {
			case isa.ClassIntAlu, isa.ClassIntMul, isa.ClassFPAlu, isa.ClassFPMul:
			default:
				t.Fatalf("%s inst %d (%s) replicated", name, g, tr.At(int(g)).Class)
			}
		})
	}
}

// Replication stays bounded: the demand-driven policy must not
// replicate a large fraction of the stream.
func TestReplicationBounded(t *testing.T) {
	for _, w := range workloads.All() {
		tr := w.Trace(15_000)
		s := steerWalk(steerCfg(), tr, nil)
		frac := float64(s.Replicated) / float64(tr.Len())
		if frac > 0.20 {
			t.Errorf("%s: replication fraction %.2f > 0.20", w.Name, frac)
		}
	}
}

// Disabling replication: no replicas, and previously-replicated values
// become communication instead.
func TestReplicationDisabled(t *testing.T) {
	w, _ := workloads.ByName("namd")
	tr := w.Trace(10_000)
	on := steerWalk(steerCfg(), tr, nil)
	cfg := steerCfg()
	cfg.Replication = false
	off := steerWalk(cfg, tr, nil)
	if off.Replicated != 0 {
		t.Errorf("replication disabled but %d replicas", off.Replicated)
	}
	if on.Replicated == 0 {
		t.Error("namd must replicate its LCG backbone")
	}
	// Without replication the serial backbone pins work to one core:
	// either communication rises or the partition degrades.
	onBal := balanceOf(on)
	offBal := balanceOf(off)
	if off.RemoteDeps <= on.RemoteDeps && offBal >= onBal-0.02 {
		t.Errorf("disabling replication changed nothing: remote %d->%d, balance %.2f->%.2f",
			on.RemoteDeps, off.RemoteDeps, onBal, offBal)
	}
}

// balanceOf returns min(core share)/0.5 in [0,1]: 1 is a perfect split.
func balanceOf(s *steerer) float64 {
	total := float64(s.Steered[0] + s.Steered[1])
	minSide := float64(s.Steered[0])
	if s.Steered[1] < s.Steered[0] {
		minSide = float64(s.Steered[1])
	}
	return minSide / total * 2
}

// Strawman policies: round-robin alternates, chunk64 splits in blocks.
func TestStrawmanSteering(t *testing.T) {
	w, _ := workloads.ByName("hmmer")
	tr := w.Trace(1_000)

	cfg := steerCfg()
	cfg.Steering = "roundrobin"
	steerWalk(cfg, tr, func(g uint64, inf steerInfo) {
		if g < 100 && inf.home != uint8(g&1) {
			t.Fatalf("roundrobin inst %d on core %d", g, inf.home)
		}
	})

	cfg.Steering = "chunk64"
	steerWalk(cfg, tr, func(g uint64, inf steerInfo) {
		if g < 256 && inf.home != uint8((g/64)&1) {
			t.Fatalf("chunk64 inst %d on core %d", g, inf.home)
		}
	})
}

// Affinity keeps serial chains on one core: a pure dependent chain must
// not be split at all.
func TestAffinityKeepsChainLocal(t *testing.T) {
	b := program.NewBuilder("chain")
	b.Li(isa.R1, 1)
	b.Label("main")
	for i := 0; i < 500; i++ {
		b.Mul(isa.R1, isa.R1, isa.R1) // self-recurrent but 1 consumer
	}
	b.Halt()
	tr := trace.CaptureFromLabel(b.MustBuild(), "main", 0)
	cfg := steerCfg()
	cfg.Replication = false // isolate affinity behaviour
	s := steerWalk(cfg, tr, nil)
	// The occupancy guard forces a switch roughly once per ROB worth of
	// instructions; beyond those, the chain must stay local.
	if s.RemoteDeps > uint64(tr.Len()/32) {
		t.Errorf("serial chain split across cores: %d remote deps over %d insts",
			s.RemoteDeps, tr.Len())
	}
}

// Memory affinity: a load reading what a recent store wrote is steered
// to the store's core.
func TestMemoryAffinity(t *testing.T) {
	b := program.NewBuilder("memaff")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, 400)
	b.Label("main")
	b.Label("loop")
	// Alternating independent work to give the balancer freedom, plus
	// a store/load pair that must stay together.
	b.Addi(isa.R3, isa.R3, 1)
	b.Addi(isa.R4, isa.R4, 1)
	b.St(isa.R3, isa.R1, 0)
	b.Addi(isa.R5, isa.R5, 1)
	b.Ld(isa.R6, isa.R1, 0)
	b.Add(isa.R7, isa.R6, isa.R7)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "loop")
	b.Halt()
	tr := trace.CaptureFromLabel(b.MustBuild(), "main", 0)
	split := 0
	var lastStore uint8
	steerWalk(steerCfg(), tr, func(g uint64, inf steerInfo) {
		d := tr.At(int(g))
		if d.IsStore() {
			lastStore = inf.home
		}
		if d.IsLoad() && inf.home != lastStore {
			split++
		}
	})
	loads := 0
	for i := 0; i < tr.Len(); i++ {
		if tr.At(i).IsLoad() {
			loads++
		}
	}
	if split > loads/10 {
		t.Errorf("%d of %d loads steered away from their producer store", split, loads)
	}
}

// Hysteresis balance property: cumulative imbalance stays bounded by a
// window proportional to the threshold on tie-heavy streams.
func TestBalanceHysteresisBounded(t *testing.T) {
	f := func(n uint16) bool {
		b := program.NewBuilder("ties")
		b.Label("main")
		count := int(n%500) + 100
		for i := 0; i < count; i++ {
			b.Li(isa.Reg(1+i%8), int64(i)) // no sources: all ties
		}
		b.Halt()
		tr := trace.Capture(b.MustBuild(), 0)
		cfg := steerCfg()
		cfg.Replication = false
		s := steerWalk(cfg, tr, nil)
		diff := int64(s.Steered[0]) - int64(s.Steered[1])
		if diff < 0 {
			diff = -diff
		}
		return diff <= int64(cfg.BalanceThreshold)+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// steeringDigest is the SHA-256 over TestSteeringPinned's per-cell
// lines, recorded on the trace-long decision array before the
// window-bounded ring and store table replaced it. Steering is a pure
// function of the trace prefix and the configuration, so a change to
// its bookkeeping must leave every decision and counter as it was.
const steeringDigest = "e88b2cfdc0d4294739ccb77dd0b72f85c3b374bb68fb55926f60136f4d348522"

// TestSteeringPinned hashes every steering decision (home, replica,
// and each source's producer and remoteness) and the four steering
// counters over all workloads × the three policies × windows 8 to 4096
// × replication on and off. Window 8 wraps the decision ring and ages
// the store table out constantly; at 20k instructions every window
// wraps its ring at least once. Workloads run as parallel subtests,
// hashed in workload order afterwards.
func TestSteeringPinned(t *testing.T) {
	all := workloads.All()
	lines := make([][]string, len(all))
	t.Run("workloads", func(t *testing.T) {
		for wi, w := range all {
			wi, w := wi, w
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				tr := w.Trace(20_000)
				for _, policy := range []string{"affinity", "roundrobin", "chunk64"} {
					for _, window := range []int{8, 64, 512, 4096} {
						for _, repl := range []bool{false, true} {
							cfg := steerCfg()
							cfg.Steering, cfg.Window, cfg.Replication = policy, window, repl
							h := uint64(14695981039346656037) // FNV-1a over 64-bit words
							mix := func(x uint64) {
								h ^= x
								h *= 1099511628211
							}
							s := steerWalk(cfg, tr, func(g uint64, inf steerInfo) {
								flags := uint64(inf.home)
								if inf.replica {
									flags |= 2
								}
								for i, d := range inf.deps {
									if d.Remote {
										flags |= 4 << i
									}
									mix(d.Producer)
								}
								mix(flags)
							})
							lines[wi] = append(lines[wi], fmt.Sprintf(
								"%s %s w%d repl=%v %016x steered=%v replicated=%d remote=%d local=%d\n",
								w.Name, policy, window, repl, h, s.Steered, s.Replicated, s.RemoteDeps, s.LocalDeps))
						}
					}
				}
			})
		}
	})
	sum := sha256.New()
	for _, ls := range lines {
		for _, l := range ls {
			sum.Write([]byte(l))
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != steeringDigest {
		t.Errorf("steering digest %s, want %s", got, steeringDigest)
	}
}
