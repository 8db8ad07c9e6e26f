package core

import (
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/ooo"
	"repro/internal/trace"
)

// steerInfo is the partitioner's decision for one dynamic instruction:
// its home core, whether it is replicated onto both cores, and the
// producer of each source operand as seen from the home core. Decisions
// are deterministic functions of the trace prefix, so they are computed
// once and kept while the lookahead window can still reach them;
// squash-and-refetch replays them.
type steerInfo struct {
	home    uint8
	replica bool
	// commits counts the instruction's commits so far (a replicated
	// instruction needs two). Writing the slot's next decision resets
	// it.
	commits uint8
	// deps[i] describes source i of the instruction from the home
	// core's perspective. For a replicated instruction, all sources
	// are available on both cores by construction, so the same deps
	// serve the replica.
	deps [3]ooo.SrcDep
}

// regState tracks, per architectural register, the most recent steered
// producer: which instruction, which core, and whether its value is
// materialised on both cores (replicated).
type regState struct {
	gseq  uint64
	core  uint8
	both  bool
	inUse bool // false: value is pre-trace architectural state
}

// steerer computes instruction-granularity partitioning decisions over
// the dynamic stream, implementing the Fg-STP policy (dependence
// affinity + load balance + replication) and the two strawman policies
// used by the ablation experiments.
type steerer struct {
	cfg config.FgSTP
	tr  *trace.Trace
	// ring holds the decisions for the last len(ring) decided gseqs,
	// gseq g at ring[g&mask]; next is the first undecided gseq. Every
	// reader works within the lookahead window around the commit
	// pointer, which the ring covers twice over.
	ring  []steerInfo
	mask  uint64
	next  uint64
	avail [isa.NumRegs]regState
	// stores maps a word address to the newest steered store to it
	// among the last Window instructions. Loads vote for their
	// predicted producer store's core — the steering unit reuses the
	// dependence-speculation hardware's pairing, which for stable
	// load/store pairs converges to exactly this mapping.
	stores storeTable
	// imbalance is (instructions steered to core 0) − (core 1),
	// excluding replicas; the tie-breaker steers toward reducing it.
	imbalance int64
	// Readiness model: estReady estimates, per register, the cycle its
	// value is available (on its home core); estClock estimates each
	// core's issue-slot availability. The affinity policy steers each
	// instruction to the core where it can start earliest — the
	// fine-grain analogue of dependence-based cluster steering.
	estReady [isa.NumRegs]float64
	estClock [2]float64
	// estFU estimates when each core's unpipelined unit pool (integer
	// divide, FP divide/sqrt) is next free: index [core][0] int,
	// [core][1] fp.
	estFU [2][2]float64
	// recentHome is a sliding window over the last windowTrack steered
	// instructions' homes; a core holding almost all of the recent
	// window has exhausted its share of the combined ROB, so steering
	// overrides affinity to keep both windows in play.
	recentHome  []uint8
	recentCount [2]int
	recentPos   int
	recentFull  bool
	// Replication budget: replicas consume fetch and issue bandwidth
	// on both cores, so the hardware caps them at a quarter of the
	// recent window.
	recentRepl []bool
	replCount  int
	replCap    int
	// occupancyCap is the per-core share of the sliding window (the
	// combined ROB) beyond which steering forces work to the sibling.
	occupancyCap int
	// lastHome is the previous instruction's core: affinity ties stay
	// there (keeping chains local) until the imbalance exceeds the
	// hysteresis threshold, which yields fine-grain chunks with
	// balanced load instead of chain-splitting alternation.
	lastHome uint8

	// Statistics (monotone; steering runs once per instruction).
	Steered    [2]uint64
	Replicated uint64
	RemoteDeps uint64 // source operands requiring communication
	LocalDeps  uint64 // source operands satisfied on the home core
}

// newSteerer builds a steering unit. robSize is one core's reorder
// buffer capacity; the occupancy guard tracks a ROB-sized sliding
// window and forces work to the sibling once one core holds nearly all
// of it (its window is then the bottleneck regardless of affinity).
func newSteerer(cfg config.FgSTP, robSize int, tr *trace.Trace) *steerer {
	// The sequencer decides up to Window instructions past the commit
	// pointer, and readers reach back to just below it (a squash victim
	// that committed in its squash cycle recommits): 2×Window+64 slots
	// keep a further window plus slack behind the pointer. A trace
	// shorter than that never wraps, so it needs no more slots.
	size := 1
	for size < 2*cfg.Window+64 && size < tr.Len() {
		size <<= 1
	}
	return &steerer{
		cfg:          cfg,
		tr:           tr,
		ring:         make([]steerInfo, size),
		mask:         uint64(size - 1),
		stores:       newStoreTable(cfg.Window),
		recentHome:   make([]uint8, robSize),
		occupancyCap: robSize * 7 / 8,
		recentRepl:   make([]bool, robSize),
		replCap:      robSize / 4,
	}
}

// info returns the decision for gseq, computing decisions up to and
// including it if needed. Callers read decisions in order, within the
// window: asking for one the ring has already overwritten panics, as
// the cores' window table does on a collision — a silent alias would
// hand out another instruction's dataflow.
func (s *steerer) info(gseq uint64) *steerInfo {
	for s.next <= gseq {
		s.steerNext()
	}
	if s.next-gseq > uint64(len(s.ring)) {
		panic("core: steering decision overwritten")
	}
	return &s.ring[gseq&s.mask]
}

// steerNext computes the decision for the next undecided instruction.
func (s *steerer) steerNext() {
	gseq := s.next
	d := s.tr.At(int(gseq))
	// Decisions are made once per gseq, in order, so the one store a
	// load at gseq can no longer pair with, of those still paired one
	// instruction earlier, is the one Window instructions older.
	if w := uint64(s.cfg.Window); gseq >= w {
		if old := s.tr.At(int(gseq - w)); old.IsStore() {
			s.stores.expire(old.Addr, gseq-w)
		}
	}
	var buf [3]isa.Reg
	srcs := d.Sources(buf[:0])

	var inf steerInfo
	inf.home = s.pickHome(gseq, d, srcs)

	// Replication: cheap register-producing ops whose inputs are
	// already on both cores execute on both, making their result
	// local everywhere. Memory and control operations never replicate.
	if s.cfg.Replication && s.replCount < s.replCap && s.replicable(gseq, d, srcs) {
		inf.replica = true
		s.Replicated++
	}

	// Record per-source producers from the home core's view.
	for i, r := range srcs {
		st := s.avail[r]
		switch {
		case !st.inUse:
			inf.deps[i] = ooo.SrcDep{Producer: ooo.NoProducer}
		case st.both || st.core == inf.home:
			inf.deps[i] = ooo.SrcDep{Producer: st.gseq}
			s.LocalDeps++
		default:
			inf.deps[i] = ooo.SrcDep{Producer: st.gseq, Remote: true}
			s.RemoteDeps++
		}
	}

	s.modelSteered(d, srcs, inf.home, inf.replica)

	// Update register availability.
	if d.HasDst() {
		s.avail[d.Dst] = regState{gseq: gseq, core: inf.home, both: inf.replica, inUse: true}
	}
	if d.IsStore() {
		s.stores.put(d.Addr, gseq)
	}

	s.Steered[inf.home]++
	if inf.home == 0 {
		s.imbalance++
	} else {
		s.imbalance--
	}
	s.lastHome = inf.home
	s.trackHome(inf.home, inf.replica)
	s.ring[gseq&s.mask] = inf
	s.next++
}

// pickHome chooses the executing core for instruction gseq, d, under
// the configured steering policy.
func (s *steerer) pickHome(gseq uint64, d *isa.DynInst, srcs []isa.Reg) uint8 {
	switch s.cfg.Steering {
	case "roundrobin":
		return uint8(gseq & 1)
	case "chunk64":
		return uint8((gseq / 64) & 1)
	}
	// Affinity (dependence-based fine-grain steering): estimate when
	// the instruction could start on each core — the later of the
	// core's issue-slot availability and its operands' readiness,
	// charging the channel latency for operands resident on the other
	// core — and pick the earlier core. Loads add the same penalty for
	// their predicted producer store (memory affinity). This is the
	// hardware analogue of dependence-based cluster steering extended
	// with the value-location table the Fg-STP partitioner keeps.
	// Window-occupancy guard: if one core received nearly the whole
	// recent window, its ROB is the bottleneck regardless of affinity.
	if s.recentCount[0] >= s.occupancyCap {
		return 1
	}
	if s.recentCount[1] >= s.occupancyCap {
		return 0
	}
	// Operand affinity: estimate when the instruction's inputs are
	// usable on each core, charging the channel latency for values
	// resident only on the sibling (including a load's predicted
	// producer store). Affinity decides outright when the cores
	// differ; the per-core load estimate only breaks ties — balance
	// must never pull a dependence chain apart, because the occupancy
	// guard above already bounds imbalance at window granularity.
	comm := float64(s.cfg.CommLatency)
	// A load's predicted producer is the newest store to its address
	// among the last Window instructions; that store's decision is
	// still in the ring.
	var storeHome uint8
	paired := false
	if d.IsLoad() {
		if g, ok := s.stores.get(d.Addr); ok {
			storeHome, paired = s.ring[g&s.mask].home, true
		}
	}
	score := func(c uint8) float64 {
		start := 0.0
		for _, r := range srcs {
			st := s.avail[r]
			ready := s.estReady[r]
			if st.inUse && !st.both && st.core != c {
				ready += comm
			}
			if ready > start {
				start = ready
			}
		}
		if paired && storeHome != c {
			start += comm
		}
		return start
	}
	if k, un := unpipelinedKind(d); un {
		// Divides and square roots monopolise a unit for their whole
		// latency: the unit's availability is part of the start
		// estimate, steering successive long-latency chains apart.
		f0, f1 := s.estFU[0][k], s.estFU[1][k]
		sc0, sc1 := score(0), score(1)
		if f0 > sc0 {
			sc0 = f0
		}
		if f1 > sc1 {
			sc1 = f1
		}
		if diff := sc0 - sc1; diff > 0.5 {
			return 1
		} else if diff < -0.5 {
			return 0
		}
		if s.estClock[0] <= s.estClock[1] {
			return 0
		}
		return 1
	}
	s0, s1 := score(0), score(1)
	if diff := s0 - s1; diff > 0.5 {
		return 1
	} else if diff < -0.5 {
		return 0
	}
	// Tie with an accumulator pattern (dst is also a source): keep the
	// serial chain where the accumulator lives — it feeds the next
	// iteration, while the other operand is usually dead after this
	// use.
	if d.HasDst() {
		for _, r := range srcs {
			if r == d.Dst {
				if st := s.avail[r]; st.inUse && !st.both {
					return st.core
				}
			}
		}
	}
	// Tie: stay on the current core for locality until the estimated
	// load imbalance exceeds the hysteresis threshold.
	th := float64(s.cfg.BalanceThreshold) * issueSlot
	if s.lastHome == 0 {
		if s.estClock[0]-s.estClock[1] > th {
			return 1
		}
		return 0
	}
	if s.estClock[1]-s.estClock[0] > th {
		return 0
	}
	return 1
}

// issueSlot is the estimated issue-bandwidth cost of one instruction in
// the readiness model (1 / assumed issue width).
const issueSlot = 0.25

// trackHome records a steering decision in the occupancy window.
func (s *steerer) trackHome(h uint8, replica bool) {
	if s.recentFull {
		s.recentCount[s.recentHome[s.recentPos]]--
		if s.recentRepl[s.recentPos] {
			s.replCount--
		}
	}
	s.recentHome[s.recentPos] = h
	s.recentRepl[s.recentPos] = replica
	s.recentCount[h]++
	if replica {
		s.replCount++
	}
	s.recentPos++
	if s.recentPos == len(s.recentHome) {
		s.recentPos = 0
		s.recentFull = true
	}
}

// estLatency estimates an instruction's execution latency for the
// steering model; loads assume an L1 hit.
func estLatency(d *isa.DynInst) float64 {
	lat := float64(isa.DefaultLatencies[d.Class].Cycles)
	if d.IsLoad() {
		lat += 3
	}
	return lat
}

// unpipelinedKind reports whether d occupies an unpipelined unit, and
// which pool (0 integer, 1 FP).
func unpipelinedKind(d *isa.DynInst) (int, bool) {
	switch d.Class {
	case isa.ClassIntDiv:
		return 0, true
	case isa.ClassFPDiv:
		return 1, true
	}
	return 0, false
}

// modelSteered advances the readiness model after steering d, whose
// register sources are srcs, to home (and, for replicas, to both
// cores).
func (s *steerer) modelSteered(d *isa.DynInst, srcs []isa.Reg, home uint8, replica bool) {
	start := s.estClock[home]
	comm := float64(s.cfg.CommLatency)
	for _, r := range srcs {
		st := s.avail[r]
		ready := s.estReady[r]
		if st.inUse && !st.both && st.core != home {
			ready += comm
		}
		if ready > start {
			start = ready
		}
	}
	if k, un := unpipelinedKind(d); un {
		if f := s.estFU[home][k]; f > start {
			start = f
		}
		s.estFU[home][k] = start + estLatency(d)
		if replica {
			s.estFU[1-home][k] += estLatency(d)
		}
	}
	s.estClock[home] += issueSlot
	if replica {
		s.estClock[1-home] += issueSlot
	}
	if d.HasDst() {
		s.estReady[d.Dst] = start + estLatency(d)
	}
}

// replicaHorizon is how far forward the steering unit scans for
// consumers when deciding replication (a fraction of the lookahead
// window the hardware already buffers).
const replicaHorizon = 64

// replicable reports whether d qualifies for replication: a cheap
// pipelined register-producing op with at most MaxReplicaSources
// sources, all of whose values are available on both cores, and whose
// result has multiple upcoming consumers. Single-consumer values are
// cheaper to handle by steering the consumer to the producer's core
// (affinity); multi-consumer values — loop counters, base addresses —
// are the ones worth materialising everywhere.
func (s *steerer) replicable(gseq uint64, d *isa.DynInst, srcs []isa.Reg) bool {
	switch d.Class {
	case isa.ClassIntAlu, isa.ClassIntMul, isa.ClassFPAlu, isa.ClassFPMul:
	default:
		return false
	}
	if !d.HasDst() || len(srcs) > s.cfg.MaxReplicaSources {
		return false
	}
	for _, r := range srcs {
		st := s.avail[r]
		if st.inUse && !st.both {
			return false
		}
	}
	// Self-recurrent ops (dst also a source: loop counters, LCG seeds,
	// induction updates) are the serial backbone of a loop — leaving
	// them on one core chains every iteration there. They replicate
	// regardless of consumer count.
	for _, r := range srcs {
		if r == d.Dst {
			return true
		}
	}
	return s.consumersAhead(gseq, d) >= 2
}

// consumersAhead counts reads of the destination of instruction gseq,
// d, in the next replicaHorizon dynamic instructions, stopping at
// redefinition.
func (s *steerer) consumersAhead(gseq uint64, d *isa.DynInst) int {
	count := 0
	end := int(gseq) + 1 + replicaHorizon
	if end > s.tr.Len() {
		end = s.tr.Len()
	}
	var buf [3]isa.Reg
	for i := int(gseq) + 1; i < end; i++ {
		n := s.tr.At(i)
		for _, r := range n.Sources(buf[:0]) {
			if r == d.Dst {
				count++
				if count >= 2 {
					return count
				}
			}
		}
		if n.HasDst() && n.Dst == d.Dst {
			break
		}
	}
	return count
}
