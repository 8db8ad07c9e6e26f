// Package checkpoint implements restartable simulation snapshots: the
// state that must travel with an execution point for a detailed
// simulation started there to behave like one that ran from the
// beginning. In a trace-driven simulator the architectural state
// (register file, memory image) lives in the trace itself, so a
// checkpoint is the trace cursor plus the warm microarchitectural
// state: branch-predictor tables (direction counters, BTB, RAS), cache
// tag/LRU arrays with their traffic counters, and the
// memory-dependence-predictor bits.
//
// Snapshots are produced by a functional Warmer — a fast in-order pass
// over the trace that updates predictors and caches without detailed
// timing — and consumed by the restore constructors of the three
// machine modes (ooo.NewCoreAt, corefusion.NewFusedAt,
// core.NewMachineAt). Snapshots live in memory only: the sampled
// runs (cmp.SliceSim) capture and restore them within one process, so
// there is no file format.
//
// Checkpoints are taken at quiescent points (between instructions, no
// pipeline state in flight), so warm tables plus the cursor are the
// complete state; the detailed warmup region a sampled run simulates
// before its measured interval absorbs the residual in-flight context.
package checkpoint

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/corefusion"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/trace"
)

// Machine modes a snapshot can describe; these mirror cmp.Mode (which
// this package cannot import — cmp sits above the machine models).
const (
	ModeSingle = "single"
	ModeFusion = "corefusion"
	ModeFgSTP  = "fgstp"
)

// HierCounters carries one hierarchy's non-cache warm counters.
type HierCounters struct {
	Prefetches   uint64
	DRAMAccesses uint64
}

// Snapshot is one restartable checkpoint. The cache-state layout is
// mode-dependent:
//
//	single, corefusion:  Caches = [L1I, L1D, L2], Hiers = [h]
//	fgstp:               Caches = [L1I0, L1D0, L1I1, L1D1, L2(shared)],
//	                     Hiers = [h0, h1]
//
// Preds always holds one predictor: the core's own for the single and
// fused modes, the global sequencer's for the Fg-STP pair.
type Snapshot struct {
	// Mode is the machine mode the snapshot was warmed for; warm-state
	// geometry is mode-specific (the fused mode doubles the L1s), so a
	// snapshot only restores into the mode it was taken for.
	Mode string
	// Pos is the trace cursor: the number of instructions the
	// functional pass consumed before the snapshot.
	Pos uint64

	Preds  []*bpred.State
	Caches []mem.CacheState
	Hiers  []HierCounters
	Dep    ooo.DepPredState
}

// CoreWarm converts the snapshot's predictor state for the single and
// fused modes (ooo.NewCoreAt). The dependence predictor starts cold:
// its table is violation-trained, which a functional pass cannot
// observe.
func (s *Snapshot) CoreWarm() *ooo.WarmState {
	if len(s.Preds) == 0 {
		return nil
	}
	return &ooo.WarmState{Pred: s.Preds[0]}
}

// HierarchyState converts the snapshot's cache state for the single and
// fused modes (a private three-level hierarchy).
func (s *Snapshot) HierarchyState() (*mem.HierarchyState, error) {
	if len(s.Caches) != 3 || len(s.Hiers) != 1 {
		return nil, fmt.Errorf("checkpoint: %s snapshot carries %d caches/%d hierarchies, want 3/1",
			s.Mode, len(s.Caches), len(s.Hiers))
	}
	return &mem.HierarchyState{
		L1I:          s.Caches[0],
		L1D:          s.Caches[1],
		L2:           s.Caches[2],
		Prefetches:   s.Hiers[0].Prefetches,
		DRAMAccesses: s.Hiers[0].DRAMAccesses,
	}, nil
}

// MachineWarm converts the snapshot for the Fg-STP pair
// (core.NewMachineAt).
func (s *Snapshot) MachineWarm() (*core.WarmState, error) {
	if len(s.Caches) != 5 || len(s.Hiers) != 2 || len(s.Preds) != 1 {
		return nil, fmt.Errorf("checkpoint: %s snapshot carries %d caches/%d hierarchies/%d predictors, want 5/2/1",
			s.Mode, len(s.Caches), len(s.Hiers), len(s.Preds))
	}
	w := &core.WarmState{
		SeqPred: s.Preds[0],
		L1I:     [2]mem.CacheState{s.Caches[0], s.Caches[2]},
		L1D:     [2]mem.CacheState{s.Caches[1], s.Caches[3]},
		L2:      s.Caches[4],
	}
	for i := 0; i < 2; i++ {
		w.Prefetches[i] = s.Hiers[i].Prefetches
		w.DRAMAccesses[i] = s.Hiers[i].DRAMAccesses
	}
	return w, nil
}

// Warmer is the functional-warming pass: it walks the trace in program
// order, running the front-end predictors on every control instruction
// and the cache hierarchy on every fetch line-cross, load and store —
// the exact update sequence the detailed front ends apply, minus
// timing. Advance is incremental, so snapshots at ascending boundaries
// share one pass over the trace.
//
// The warmer maintains one predictor and one hierarchy in the target
// mode's geometry. For the Fg-STP pair the warmed hierarchy plays the
// role of the shared front end: at snapshot time its L1 arrays are
// replicated into both cores' private L1s (the pair's steering
// interleaves the working set across both; replication is the
// quiescent-point approximation, and the detailed warmup region
// corrects the residue).
type Warmer struct {
	mode string
	tr   *trace.Trace
	pred *bpred.Predictor
	hier *mem.Hierarchy

	pos      int
	lastLine uint64
}

// NewWarmer builds a functional warmer for machine m in the given mode
// over tr.
func NewWarmer(m config.Machine, mode string, tr *trace.Trace) (*Warmer, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	hcfg := m.Hier
	switch mode {
	case ModeSingle, ModeFgSTP:
		// Per-core geometry; the Fg-STP pair's private L1s match it.
	case ModeFusion:
		hcfg = corefusion.FusedHierarchy(m)
	default:
		return nil, fmt.Errorf("checkpoint: unknown mode %q", mode)
	}
	pred, err := bpred.New(m.Core.Predictor)
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(hcfg)
	if err != nil {
		return nil, err
	}
	return &Warmer{
		mode:     mode,
		tr:       tr,
		pred:     pred,
		hier:     hier,
		lastLine: ^uint64(0),
	}, nil
}

// Pos returns the trace cursor: instructions consumed so far.
func (w *Warmer) Pos() int { return w.pos }

// AdvanceTo functionally executes trace instructions [Pos, n).
func (w *Warmer) AdvanceTo(n int) error {
	if n > w.tr.Len() {
		return fmt.Errorf("checkpoint: advance to %d past trace end %d", n, w.tr.Len())
	}
	if n < w.pos {
		return fmt.Errorf("checkpoint: advance to %d behind cursor %d", n, w.pos)
	}
	for ; w.pos < n; w.pos++ {
		d := w.tr.At(w.pos)
		// I-cache: charge a fetch when crossing into a new line, like
		// the detailed fetch stages.
		if line := w.hier.L1I.LineAddr(d.PC); line != w.lastLine {
			w.hier.Fetch(d.PC)
			w.lastLine = line
		}
		if d.IsCtrl() {
			w.observeControl(d)
		}
		switch {
		case d.IsLoad():
			w.hier.Load(d.Addr)
		case d.IsStore():
			w.hier.Store(d.Addr)
		}
	}
	return nil
}

// observeControl trains the predictor exactly like the detailed front
// ends (ooo.Core fetch, the Fg-STP sequencer) do, minus the stall
// bookkeeping.
func (w *Warmer) observeControl(d *isa.DynInst) {
	switch d.Class {
	case isa.ClassBranch:
		w.pred.ObserveBranch(d.PC, d.Taken())
	case isa.ClassJump:
		switch {
		case d.IsRet():
			w.pred.ObserveReturn(d.Target)
		case d.Indirect():
			w.pred.ObserveIndirect(d.PC, d.Target)
		}
		if d.IsCall() {
			w.pred.ObserveCall(d.PC + isa.InstBytes)
		}
	}
}

// Snapshot captures the warm state at the current cursor as a
// restartable checkpoint (deep copies: later Advance calls do not
// mutate it).
func (w *Warmer) Snapshot() *Snapshot {
	s := &Snapshot{
		Mode:  w.mode,
		Pos:   uint64(w.pos),
		Preds: []*bpred.State{w.pred.State()},
		// The dependence predictor is violation-trained; functional
		// warming leaves it cold (empty table in the snapshot).
	}
	h := HierCounters{Prefetches: w.hier.Prefetches, DRAMAccesses: w.hier.DRAMAccesses}
	l1i, l1d, l2 := w.hier.L1I.State(), w.hier.L1D.State(), w.hier.L2.State()
	if w.mode == ModeFgSTP {
		s.Caches = []mem.CacheState{l1i, l1d, clone(l1i), clone(l1d), l2}
		s.Hiers = []HierCounters{h, h}
	} else {
		s.Caches = []mem.CacheState{l1i, l1d, l2}
		s.Hiers = []HierCounters{h}
	}
	return s
}

// clone deep-copies a cache state (replicated L1s must not alias).
func clone(c mem.CacheState) mem.CacheState {
	return mem.CacheState{
		Tags:  append([]uint64(nil), c.Tags...),
		Valid: append([]bool(nil), c.Valid...),
		Dirty: append([]bool(nil), c.Dirty...),
		Ages:  append([]uint32(nil), c.Ages...),
		Clock: c.Clock,
		Stats: c.Stats,
	}
}

// Capture runs one functional pass over tr, snapshotting at each of the
// given boundaries (ascending, deduplicated by the caller or not —
// duplicates share a snapshot). It returns the snapshots keyed by
// boundary.
func Capture(m config.Machine, mode string, tr *trace.Trace, boundaries []int) (map[int]*Snapshot, error) {
	w, err := NewWarmer(m, mode, tr)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*Snapshot, len(boundaries))
	for _, b := range boundaries {
		if _, ok := out[b]; ok {
			continue
		}
		if err := w.AdvanceTo(b); err != nil {
			return nil, err
		}
		out[b] = w.Snapshot()
	}
	return out, nil
}
