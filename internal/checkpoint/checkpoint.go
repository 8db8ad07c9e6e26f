// Package checkpoint implements restartable simulation snapshots: the
// state that must travel with an execution point for a detailed
// simulation started there to behave like one that ran from the
// beginning. In a trace-driven simulator the architectural state
// (register file, memory image) lives in the trace itself, so a
// checkpoint is the trace cursor plus the warm microarchitectural
// state a functional pass can observe: branch-predictor tables
// (direction counters, BTB, RAS) and cache tag/LRU arrays with their
// traffic counters. Memory-dependence predictors are violation-trained,
// which a functional pass cannot observe, so restored machines start
// them cold.
//
// Snapshots are produced by a functional Warmer — a fast in-order pass
// over the trace that updates predictors and caches without detailed
// timing — and consumed by cmp's machine builder, which restores the
// single and fused cores' hierarchy and predictor and hands the Fg-STP
// pair to core.Machine.Restore. Snapshots live in memory only: the
// sampled runs (cmp.SliceSim) capture and restore them within one
// process, so there is no file format.
//
// Checkpoints are taken at quiescent points (between instructions, no
// pipeline state in flight), so warm tables plus the cursor are the
// complete state; the detailed warmup region a sampled run simulates
// before its measured interval absorbs the residual in-flight context.
package checkpoint

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Snapshot is one restartable checkpoint: the trace cursor, the
// predictor and one hierarchy, in the geometry the Warmer was built
// with.
type Snapshot struct {
	// Pos is the trace cursor: the number of instructions the
	// functional pass consumed before the snapshot.
	Pos  uint64
	Pred *bpred.State
	Hier mem.HierarchyState
}

// Warmer is the functional-warming pass: it walks the trace in program
// order, running the front-end predictor on every control instruction
// and the cache hierarchy on every fetch line-cross, load and store —
// the exact update sequence the detailed front ends apply, minus
// timing. Advance is incremental, so snapshots at ascending boundaries
// share one pass over the trace.
type Warmer struct {
	tr   *trace.Trace
	pred *bpred.Predictor
	hier *mem.Hierarchy

	pos      int
	lastLine uint64
}

// NewWarmer builds a functional warmer over tr for a predictor and a
// cache hierarchy of the given geometry: the restored machine's own
// (for the fused core, its doubled L1s; for the Fg-STP pair, one
// core's).
func NewWarmer(pcfg bpred.Config, hcfg mem.HierarchyConfig, tr *trace.Trace) (*Warmer, error) {
	pred, err := bpred.New(pcfg)
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(hcfg)
	if err != nil {
		return nil, err
	}
	return &Warmer{tr: tr, pred: pred, hier: hier, lastLine: ^uint64(0)}, nil
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
	return &Snapshot{Pos: uint64(w.pos), Pred: w.pred.State(), Hier: w.hier.State()}
}

// Capture runs one functional pass over tr, snapshotting at each of the
// given boundaries (ascending, deduplicated by the caller or not —
// duplicates share a snapshot). It returns the snapshots keyed by
// boundary.
func Capture(pcfg bpred.Config, hcfg mem.HierarchyConfig, tr *trace.Trace, boundaries []int) (map[int]*Snapshot, error) {
	w, err := NewWarmer(pcfg, hcfg, tr)
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
