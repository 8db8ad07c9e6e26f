package perf

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); Args carry the cell or request
// identity.
type Span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // since the recorder was created
	Args       map[string]string
}

// Interval is the span's extent.
func (s Span) Interval() Interval { return Interval{s.Start, s.End} }

// Recorder keeps spans in memory for the length of a traced run. It is
// safe for concurrent use: cells run on parallel workers. A nil
// *Recorder records nothing, so timed code paths can share the calls.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts the recorder's clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name string, parent int, args map[string]string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Args: args})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Since records a closed span from t0 to now and returns its length.
func (r *Recorder) Since(name string, parent int, t0 time.Time, args map[string]string) time.Duration {
	d := time.Since(t0)
	if r == nil {
		return d
	}
	start := t0.Sub(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: start + d, Args: args})
	return d
}

// Spans returns the closed spans, in recording order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Named returns the closed spans called name.
func (r *Recorder) Named(name string) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Busy is the summed duration of spans (overlaps counted once per span:
// two cells on two workers for one second are two busy seconds).
func Busy(spans []Span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.End - s.Start
	}
	return d
}

// ChildrenOf returns the spans whose parent is id.
func ChildrenOf(spans []Span, id int) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// Intervals returns the extents of spans.
func Intervals(spans []Span) []Interval {
	out := make([]Interval, len(spans))
	for i, s := range spans {
		out[i] = s.Interval()
	}
	return out
}

// WriteChromeTrace writes the spans as Chrome trace-event JSON (open in
// Perfetto or chrome://tracing). Spans that overlap without nesting go
// to separate lanes, because the viewer requires events on one thread
// to nest.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	spans := r.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	// lanes[k] is the stack of spans open on lane k; a span goes to the
	// first lane whose innermost open span contains it or that is empty.
	var lanes [][]Span
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		lane := -1
		for k := range lanes {
			st := lanes[k]
			for len(st) > 0 && st[len(st)-1].End <= s.Start {
				st = st[:len(st)-1]
			}
			lanes[k] = st
			if len(st) == 0 || st[len(st)-1].End >= s.End {
				lane = k
				break
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s)
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: lane + 1, Args: s.Args})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
