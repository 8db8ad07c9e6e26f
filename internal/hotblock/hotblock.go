// Package hotblock is the profiling and bookkeeping substrate of
// hot-block timing memoization — the timing-simulator analogue of a
// tracing JIT. The trace-driven cores re-execute steady-state loops by
// re-deriving every rename/steer/issue decision from scratch each
// iteration; this package detects the repetition (basic blocks of the
// dynamic stream that recur beyond a promotion threshold) so the engine
// can capture a timing template for a block once and replay it in bulk
// on later iterations.
//
// The package is deliberately engine-agnostic: it holds the per-block
// profile state machine (cold → hot → armed → dead), the tuning knobs,
// and the replay telemetry counters. The capture/replay machinery
// itself — state-vector encoding, precondition checks, the bulk state
// shift — lives with the core model in internal/ooo, which imports this
// package (never the other way around).
package hotblock

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Config tunes the detector and the replay engine. The zero value is
// usable: WithDefaults fills unset fields with the production defaults.
type Config struct {
	// Threshold is how many times a block must start before it is
	// promoted to hot and considered for template capture.
	Threshold int
	// MinSpanInsts is the smallest instruction count a captured span may
	// cover. Replaying a span costs one state-vector comparison plus an
	// O(window) state shift, so single short iterations are not worth
	// memoizing; a span bundling several iterations amortises the fixed
	// cost. Closure waits for the first recurrence at least this far
	// from the capture entry (periodicity at the iteration level implies
	// periodicity at every multiple).
	MinSpanInsts int
	// MaxSpanInsts and MaxSpanCycles abort a capture attempt that has
	// run too long without the machine state recurring.
	MaxSpanInsts  int
	MaxSpanCycles int64
	// MaxCaptureAttempts kills a block whose captures keep aborting
	// (squashes or non-recurring state): it is not steady, stop paying
	// the capture bookkeeping for it.
	MaxCaptureAttempts int
	// MaxPrecondMisses drops an armed template after this many
	// consecutive failed replay preconditions: the machine has moved to
	// a different steady state and the template only costs check time.
	MaxPrecondMisses int
}

// Default knob values; see Config.
const (
	DefaultThreshold          = 16
	DefaultMinSpanInsts       = 64
	DefaultMaxSpanInsts       = 4096
	DefaultMaxSpanCycles      = 8192
	DefaultMaxCaptureAttempts = 4
	DefaultMaxPrecondMisses   = 64
)

// WithDefaults returns c with every unset (zero) field replaced by its
// default.
func (c Config) WithDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.MinSpanInsts <= 0 {
		c.MinSpanInsts = DefaultMinSpanInsts
	}
	if c.MaxSpanInsts <= 0 {
		c.MaxSpanInsts = DefaultMaxSpanInsts
	}
	if c.MaxSpanInsts < c.MinSpanInsts {
		c.MaxSpanInsts = c.MinSpanInsts
	}
	if c.MaxSpanCycles <= 0 {
		c.MaxSpanCycles = DefaultMaxSpanCycles
	}
	if c.MaxCaptureAttempts <= 0 {
		c.MaxCaptureAttempts = DefaultMaxCaptureAttempts
	}
	if c.MaxPrecondMisses <= 0 {
		c.MaxPrecondMisses = DefaultMaxPrecondMisses
	}
	return c
}

// Status is a block's position in the memoization lifecycle.
type Status uint8

// Block lifecycle states.
const (
	// Cold: seen fewer than Threshold times.
	Cold Status = iota
	// Hot: past the threshold, waiting for a successful capture.
	Hot
	// Armed: a timing template is installed and replayable.
	Armed
	// Dead: capture or replay kept failing; the block is ignored until
	// its sighting count reaches ReviveAt (exponential backoff — see
	// Block.ReviveAt).
	Dead
)

func (s Status) String() string {
	switch s {
	case Cold:
		return "cold"
	case Hot:
		return "hot"
	case Armed:
		return "armed"
	case Dead:
		return "dead"
	}
	return "?"
}

// Block is the profile record of one basic-block start PC.
type Block struct {
	// PC is the block's start address (its identity: the dynamic stream
	// revisits a loop body at the same PC every iteration).
	PC     uint64
	Count  uint64
	Status Status
	// Attempts counts aborted capture attempts; Misses counts
	// consecutive failed replay preconditions on the armed template.
	Attempts int
	Misses   int
	// ReviveAt is the sighting count at which a Dead block is given a
	// fresh set of capture attempts. Blocks routinely die during cold
	// start (compulsory cache misses and predictor warm-up look exactly
	// like unsteadiness to the capture abort checks), so death must not
	// be permanent; doubling the count per death keeps the total capture
	// work spent on a genuinely unsteady block logarithmic in its
	// occurrences.
	ReviveAt uint64
	// Template is an opaque slot for the engine's captured timing
	// template (internal/ooo stores its template struct here; this
	// package never looks inside).
	Template any
}

// Profile tracks block occurrence counts for one core. The common case
// — a steady loop hitting the same block start every iteration — is
// served from a one-entry cache in front of the map.
type Profile struct {
	blocks map[uint64]*Block
	lastPC uint64
	lastB  *Block
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{blocks: make(map[uint64]*Block)}
}

// Observe records one occurrence of a block starting at pc and returns
// its record, with Count already incremented. Promotion to Hot is the
// caller's decision (it owns the config).
func (p *Profile) Observe(pc uint64) *Block {
	b := p.Lookup(pc)
	if b == nil {
		b = &Block{PC: pc}
		p.blocks[pc] = b
		p.lastPC, p.lastB = pc, b
	}
	b.Count++
	return b
}

// Lookup returns the record for pc, or nil. It refreshes the one-entry
// cache on a map hit.
func (p *Profile) Lookup(pc uint64) *Block {
	if p.lastB != nil && p.lastPC == pc {
		return p.lastB
	}
	b, ok := p.blocks[pc]
	if !ok {
		return nil
	}
	p.lastPC, p.lastB = pc, b
	return b
}

// Len returns the number of distinct block starts seen.
func (p *Profile) Len() int { return len(p.blocks) }

// Counters is the replay telemetry of one run (or an aggregate across
// runs; see Merge). The counters are deliberately kept out of the run
// summaries: experiment output must stay byte-identical with
// memoization on and off, so telemetry only surfaces through side
// channels (the fgstpsim stderr footer, the metrics registry).
type Counters struct {
	// Templates counts successful template captures; Replays counts
	// template replays, covering ReplayedCycles simulated cycles in
	// bulk.
	Templates      uint64
	Replays        uint64
	ReplayedCycles uint64
	// ReplayedInsts counts instructions committed through replays.
	ReplayedInsts uint64
	// TemplatesPeriodic counts the subset of Templates captured with a
	// recurring miss pattern (the all-hit precondition relaxed to a
	// probe-proven recurring hierarchy response).
	TemplatesPeriodic uint64
	// InvalidationsSquash counts templates dropped (or captures
	// aborted) because a squash crossed the block; InvalidationsPrecond
	// counts failed replay precondition checks.
	InvalidationsSquash  uint64
	InvalidationsPrecond uint64
	// Precond* split InvalidationsPrecond by the first check that
	// refused: the watchdog/trace window, the normalized state vector,
	// the span shape or address partition, the hierarchy response (the
	// all-hit lookup or the miss-pattern probe), the branch predictor
	// overlay, and the dependence predictor. They sum to
	// InvalidationsPrecond.
	PrecondWindow uint64
	PrecondVector uint64
	PrecondShape  uint64
	PrecondCache  uint64
	PrecondPred   uint64
	PrecondDep    uint64
	// AbortsSpanLimit counts capture attempts aborted for exceeding the
	// span bounds without recurrence; AbortsUnsteady those aborted by a
	// non-recurring event (squash-free poison: mispredict, violation,
	// dependence-table clear). DeclinedVisibility counts cores that
	// refused to engage the engine because their state is not locally
	// visible (cross-core hooks or an external sequencer).
	AbortsSpanLimit    uint64
	AbortsUnsteady     uint64
	DeclinedVisibility uint64
}

// Merge accumulates o into c.
func (c *Counters) Merge(o Counters) {
	c.Templates += o.Templates
	c.Replays += o.Replays
	c.ReplayedCycles += o.ReplayedCycles
	c.ReplayedInsts += o.ReplayedInsts
	c.TemplatesPeriodic += o.TemplatesPeriodic
	c.InvalidationsSquash += o.InvalidationsSquash
	c.InvalidationsPrecond += o.InvalidationsPrecond
	c.PrecondWindow += o.PrecondWindow
	c.PrecondVector += o.PrecondVector
	c.PrecondShape += o.PrecondShape
	c.PrecondCache += o.PrecondCache
	c.PrecondPred += o.PrecondPred
	c.PrecondDep += o.PrecondDep
	c.AbortsSpanLimit += o.AbortsSpanLimit
	c.AbortsUnsteady += o.AbortsUnsteady
	c.DeclinedVisibility += o.DeclinedVisibility
}

// AddTo publishes the counters into a metrics registry under the
// hotblock_* names.
func (c *Counters) AddTo(reg *metrics.Registry) {
	reg.Set("hotblock_templates", float64(c.Templates))
	reg.Set("hotblock_replays", float64(c.Replays))
	reg.Set("hotblock_replayed_cycles", float64(c.ReplayedCycles))
	reg.Set("hotblock_replayed_insts", float64(c.ReplayedInsts))
	reg.Set("hotblock_templates_periodic", float64(c.TemplatesPeriodic))
	reg.Set("hotblock_invalidations_squash", float64(c.InvalidationsSquash))
	reg.Set("hotblock_invalidations_precond", float64(c.InvalidationsPrecond))
	reg.Set("hotblock_precond_window", float64(c.PrecondWindow))
	reg.Set("hotblock_precond_vector", float64(c.PrecondVector))
	reg.Set("hotblock_precond_shape", float64(c.PrecondShape))
	reg.Set("hotblock_precond_cache", float64(c.PrecondCache))
	reg.Set("hotblock_precond_pred", float64(c.PrecondPred))
	reg.Set("hotblock_precond_dep", float64(c.PrecondDep))
	reg.Set("hotblock_aborts_span_limit", float64(c.AbortsSpanLimit))
	reg.Set("hotblock_aborts_unsteady", float64(c.AbortsUnsteady))
	reg.Set("hotblock_declined_visibility", float64(c.DeclinedVisibility))
}

// defaultDisabled is the process-wide kill switch behind the CLIs'
// -hotblock flag. It gates whether run paths that were not handed an
// explicit choice enable memoization; the experiment harness inherits
// it so `fgstpbench -hotblock=0` disables replay everywhere without
// threading an option through every experiment constructor. Atomic
// because the scheduler runs simulations on concurrent workers.
var defaultDisabled atomic.Bool

// SetDefaultDisabled flips the process-wide default: true disables
// memoization in every run that does not explicitly opt in or out.
func SetDefaultDisabled(v bool) { defaultDisabled.Store(v) }

// DefaultDisabled reports the process-wide default.
func DefaultDisabled() bool { return defaultDisabled.Load() }
