package ooo

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// NoProducer marks a source operand whose value is architectural state
// (no in-flight producer) in a SrcDep override.
const NoProducer = ^uint64(0)

// SrcDep describes, for one source operand, which dynamic instruction
// produces its value — computed by the Fg-STP steering unit, which sees
// the global dataflow the core's local rename table cannot.
type SrcDep struct {
	// Producer is the GSeq of the producing instruction, or NoProducer.
	Producer uint64
	// Remote is true when the producer executes on the other core and
	// the value arrives through the inter-core channel.
	Remote bool
}

// FetchItem is one instruction as delivered to a core's front end.
type FetchItem struct {
	DI *isa.DynInst
	// GSeq is the global program-order sequence number. Within one
	// core's stream GSeq is strictly increasing, except that a replica
	// shares the GSeq of its original (they never share a core).
	GSeq uint64
	// Replica marks an instruction duplicated onto this core by the
	// Fg-STP replication policy; it executes normally but does not
	// count as a committed program instruction.
	Replica bool
	// Deps, when non-nil, overrides local renaming: entry i describes
	// the producer of DI's i-th source (Src1..Src3 order). Nil entries
	// semantics: the core falls back to its local rename table.
	Deps *[3]SrcDep
}

// Stream supplies a core's instruction stream. Implementations decide
// pacing: returning ok=false from Peek stalls fetch for the cycle
// (used by the Fg-STP sequencer to model shared-frontend effects).
type Stream interface {
	// Peek returns the next item without consuming it. ok=false means
	// nothing fetchable this cycle (possibly forever; see Exhausted).
	Peek(now int64) (FetchItem, bool)
	// Advance consumes the item Peek returned.
	Advance()
	// Rewind repositions the stream so the next item is the one with
	// GSeq == gseq (used on squash). Streams that never squash may
	// panic.
	Rewind(gseq uint64)
	// Exhausted reports that no items will ever be produced again.
	Exhausted() bool
}

// TraceStream feeds a captured trace in program order — the stream of
// the single-core and fused-core modes.
type TraceStream struct {
	tr  *trace.Trace
	pos int
}

// NewTraceStream returns a stream over tr starting at the beginning.
func NewTraceStream(tr *trace.Trace) *TraceStream {
	return &TraceStream{tr: tr}
}

// Peek implements Stream.
func (s *TraceStream) Peek(now int64) (FetchItem, bool) {
	if s.pos >= s.tr.Len() {
		return FetchItem{}, false
	}
	return FetchItem{DI: s.tr.At(s.pos), GSeq: uint64(s.pos)}, true
}

// Advance implements Stream.
func (s *TraceStream) Advance() { s.pos++ }

// Rewind implements Stream.
func (s *TraceStream) Rewind(gseq uint64) { s.pos = int(gseq) }

// Exhausted implements Stream.
func (s *TraceStream) Exhausted() bool { return s.pos >= s.tr.Len() }

// Pos returns the stream's current trace position (the fetch frontier):
// the index of the next instruction Peek will return.
func (s *TraceStream) Pos() int { return s.pos }
