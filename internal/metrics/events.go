// Package metrics is the observability layer of the simulator: a
// typed pipeline event stream the Fg-STP machine emits steering,
// value-transfer and squash events into, a Chrome trace-event exporter
// that renders one run's event stream into a Perfetto-loadable file,
// and small process-introspection helpers (peak RSS) for the CLI
// session footers. Named run counters live on stats.Run.
package metrics

// Kind classifies one pipeline event.
type Kind uint8

// Pipeline event kinds. Steer/Replicate/Transfer/Violation are emitted
// by the Fg-STP coordinator; Issue/Commit/Squash by every core model.
const (
	// EvSteer: the sequencer delivered an instruction to its home core.
	EvSteer Kind = iota
	// EvReplicate: the instruction was additionally replicated to the
	// sibling core.
	EvReplicate
	// EvTransfer: a register value crossed the inter-core channel; the
	// span runs from the producer's completion to the delivery grant.
	EvTransfer
	// EvIssue: a uop started executing; the span covers its execution
	// latency.
	EvIssue
	// EvCommit: a uop retired.
	EvCommit
	// EvSquash: the pipeline discarded every uop at or younger than GSeq.
	EvSquash
	// EvViolation: a cross-core memory-order violation was detected.
	EvViolation
	numKinds
)

var kindNames = [numKinds]string{
	EvSteer:     "steer",
	EvReplicate: "replicate",
	EvTransfer:  "transfer",
	EvIssue:     "issue",
	EvCommit:    "commit",
	EvSquash:    "squash",
	EvViolation: "violation",
}

// String returns the kind's short name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MachineScope is the Event.Core value for machine-level events that
// belong to no single core (global squashes, violations).
const MachineScope = -1

// Event is one pipeline occurrence at simulation-cycle resolution.
type Event struct {
	// Cycle is the start cycle; Dur the span length in cycles (0 renders
	// as an instant event).
	Cycle int64
	Dur   int64
	// Core is the core the event belongs to, or MachineScope.
	Core int
	Kind Kind
	// GSeq is the global program-order sequence number of the
	// instruction involved (when one is).
	GSeq uint64
	// Detail is a short human label ("load", "to core 1"); may be empty.
	Detail string
}

// Sink receives pipeline events. Emitters hold a nil-checked Sink, so
// an uninstrumented run pays only a nil comparison per event site;
// implementations must be cheap and single-goroutine (the simulators
// are single-threaded per run).
type Sink interface {
	Emit(Event)
}

// Recorder is a Sink that buffers events in emission order. Limit
// bounds memory on long runs: once reached, further events increment
// Dropped instead of growing Events, so the exporter can report the
// truncation rather than silently losing the tail.
type Recorder struct {
	Events  []Event
	Limit   int // 0 means DefaultRecorderLimit
	Dropped uint64
}

// DefaultRecorderLimit bounds a Recorder when Limit is left zero:
// roughly a few hundred MB worst case, far beyond any run worth
// loading into a trace viewer.
const DefaultRecorderLimit = 4 << 20

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	limit := r.Limit
	if limit <= 0 {
		limit = DefaultRecorderLimit
	}
	if len(r.Events) >= limit {
		r.Dropped++
		return
	}
	r.Events = append(r.Events, e)
}

// CoreSink tags every event that does not already carry a core with the
// given core index before forwarding — how a per-core model plugged
// into a multi-core machine shares the machine's sink.
type CoreSink struct {
	Sink Sink
	Core int
}

// Emit implements Sink.
func (s CoreSink) Emit(e Event) {
	e.Core = s.Core
	s.Sink.Emit(e)
}
