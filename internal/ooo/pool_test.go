package ooo

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
)

// commitRecorder implements Hooks as a passive observer that records
// the pointer identity and gseq of every committed uop.
type commitRecorder struct {
	ptrs  map[*UOp]int
	gseqs []uint64
}

func (h *commitRecorder) ExtReadyAt(u *UOp, srcIdx int, now int64) int64 { return 0 }
func (h *commitRecorder) LoadGate(u *UOp, now int64) (bool, bool)        { return true, false }
func (h *commitRecorder) LoadExtraLatency(u *UOp) int                    { return 0 }
func (h *commitRecorder) OnIssue(u *UOp, now int64)                      {}
func (h *commitRecorder) CanCommit(u *UOp, now int64) bool               { return true }
func (h *commitRecorder) GateOpenAt(g uint64, now int64) int64           { return now }
func (h *commitRecorder) OnViolation(gseq uint64, now int64) bool        { return false }

func (h *commitRecorder) OnCommit(u *UOp, now int64) {
	if h.ptrs == nil {
		h.ptrs = make(map[*UOp]int)
	}
	h.ptrs[u]++
	h.gseqs = append(h.gseqs, u.GSeq())
}

// loopTrace is a mixed arith/load/branch loop long enough to cycle the
// uop pool many times over.
func loopTrace(iters int64) *trace.Trace {
	b := program.NewBuilder("pool")
	b.Li(isa.R1, 0x100000)
	b.Li(isa.R2, iters)
	b.Label("loop")
	b.Ld(isa.R3, isa.R1, 0)
	b.Add(isa.R4, isa.R3, isa.R4)
	b.St(isa.R4, isa.R1, 64)
	b.Addi(isa.R1, isa.R1, 8)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "loop")
	b.Halt()
	return trace.Capture(b.MustBuild(), 0)
}

// Committed uops are returned to the pool and reused: a drain that
// commits thousands of instructions touches no more distinct UOp
// objects than the pool was prefilled with, and the pool is full again
// once the window empties.
func TestPooledUOpsReused(t *testing.T) {
	tr := loopTrace(2000)
	hier, err := mem.NewHierarchy(testHier())
	if err != nil {
		t.Fatal(err)
	}
	rec := &commitRecorder{}
	core, err := NewCore(testConfig(), hier, NewTraceStream(tr), rec)
	if err != nil {
		t.Fatal(err)
	}
	poolSize := len(core.pool)
	mustDrain(t, core, tr.Len())

	if got := len(rec.ptrs); got > poolSize {
		t.Errorf("drain touched %d distinct uops; pool holds only %d — uops are leaking, not recycling", got, poolSize)
	}
	if committed := len(rec.gseqs); committed != tr.Len() {
		t.Fatalf("committed %d of %d", committed, tr.Len())
	}
	// Reuse must actually happen: far more commits than objects.
	maxReuse := 0
	for _, n := range rec.ptrs {
		if n > maxReuse {
			maxReuse = n
		}
	}
	if maxReuse < 2 {
		t.Error("no uop was committed twice; pool recycling is not happening")
	}
	// The window is empty, so every prefilled uop must be home again
	// (commit must not retain pointers in rob/wtab slots).
	if got := len(core.pool); got != poolSize {
		t.Errorf("after drain pool holds %d of %d uops", got, poolSize)
	}
	for _, u := range core.wtab {
		if u != nil {
			t.Fatal("window table retains a uop after drain")
		}
	}
}

// Steady-state Core.Cycle performs zero heap allocations: the pool is
// prefilled to the maximum in-flight population, the window tables and
// rings are fixed arrays, and the issue scan reuses its scratch.
func TestCoreCycleZeroAllocs(t *testing.T) {
	tr := loopTrace(200_000)
	core := mustCore(t, testConfig(), tr)
	var now int64
	// Warm up past cold-start growth (branch predictor tables, cache
	// metadata, steering) into the steady state.
	for ; now < 20_000; now++ {
		core.Cycle(now)
	}
	avg := testing.AllocsPerRun(50, func() {
		for end := now + 100; now < end; now++ {
			core.Cycle(now)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Core.Cycle allocates: %.2f allocs per 100 cycles, want 0", avg)
	}
	if core.Report().Committed == 0 {
		t.Fatal("core made no progress during the measurement")
	}
}

// Same property for a fused two-cluster core, which additionally
// exercises the deferred-release queue and copy-slot accounting.
func TestFusedCoreCycleZeroAllocs(t *testing.T) {
	tr := loopTrace(200_000)
	cfg := testConfig()
	cfg.Clusters = 2
	cfg.CrossClusterBypass = 2
	core := mustCore(t, cfg, tr)
	var now int64
	for ; now < 20_000; now++ {
		core.Cycle(now)
	}
	avg := testing.AllocsPerRun(50, func() {
		for end := now + 100; now < end; now++ {
			core.Cycle(now)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state fused Core.Cycle allocates: %.2f allocs per 100 cycles, want 0", avg)
	}
}

// Random mid-run squashes: the pooled ring engine recovers, commits the
// whole trace, and is cycle-for-cycle deterministic — the committed
// gseq sequence and final cycle count are identical across runs with
// the same injected squash points. This is the guard against
// pool-recycling hazards (a stale pointer read after recycling would
// perturb the replay).
func TestRandomSquashDeterministic(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := randomTrace(seed, 1200)

		type outcome struct {
			gseqs  []uint64
			cycles int64
		}
		runOnce := func() outcome {
			rng := rand.New(rand.NewSource(seed * 7))
			rec := &commitRecorder{}
			hier, err := mem.NewHierarchy(testHier())
			if err != nil {
				t.Fatal(err)
			}
			core, err := NewCore(testConfig(), hier, NewTraceStream(tr), rec)
			if err != nil {
				t.Fatal(err)
			}
			var now int64
			for ; !core.Done(); now++ {
				core.Cycle(now)
				// Occasionally squash at a random point inside the
				// current window, as a coordinator would on a remote
				// violation.
				if rng.Intn(400) == 0 && core.InFlight() > 1 {
					if g, ok := core.OldestUncommitted(); ok {
						core.SquashFrom(g+uint64(rng.Intn(core.InFlight())), now)
					}
				}
				if now > int64(tr.Len())*1000 {
					t.Fatalf("seed %d: livelock after %d cycles (%d committed)", seed, now, core.Report().Committed)
				}
			}
			return outcome{gseqs: rec.gseqs, cycles: now}
		}

		a, b := runOnce(), runOnce()
		if a.cycles != b.cycles {
			t.Fatalf("seed %d: cycle counts diverge: %d vs %d", seed, a.cycles, b.cycles)
		}
		if len(a.gseqs) != len(b.gseqs) {
			t.Fatalf("seed %d: commit streams diverge in length: %d vs %d", seed, len(a.gseqs), len(b.gseqs))
		}
		for i := range a.gseqs {
			if a.gseqs[i] != b.gseqs[i] {
				t.Fatalf("seed %d: commit %d diverges: gseq %d vs %d", seed, i, a.gseqs[i], b.gseqs[i])
			}
		}
		// And the squashed runs still commit the full trace, in order
		// per refetch epoch (each commit is either the next gseq or a
		// rewind to an earlier one).
		last := a.gseqs[len(a.gseqs)-1]
		if last != uint64(tr.Len()-1) {
			t.Fatalf("seed %d: final commit is gseq %d, want %d", seed, last, tr.Len()-1)
		}
		seen := make(map[uint64]bool, tr.Len())
		for _, g := range a.gseqs {
			seen[g] = true
		}
		if len(seen) != tr.Len() {
			t.Fatalf("seed %d: committed %d distinct gseqs of %d", seed, len(seen), tr.Len())
		}
	}
}
