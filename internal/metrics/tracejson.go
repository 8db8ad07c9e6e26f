package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// traceEvent is one record of the Chrome trace-event format (the JSON
// schema Perfetto and chrome://tracing load). One simulation cycle maps
// to one microsecond of trace time.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level container form of the format.
type chromeTrace struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	// OtherData carries run identification (workload, mode, dropped
	// event count) without affecting rendering.
	OtherData map[string]string `json:"otherData,omitempty"`
}

// pidOf maps an event scope to a trace process: the machine-level lane
// is pid 0, core k is pid k+1.
func pidOf(core int) int {
	if core == MachineScope {
		return 0
	}
	return core + 1
}

// Lane (thread) assignment within a process, one row per event kind.
func tidOf(k Kind) int {
	switch k {
	case EvSteer, EvReplicate:
		return 1
	case EvIssue:
		return 2
	case EvCommit:
		return 3
	case EvTransfer:
		return 4
	case EvSquash, EvViolation:
		return 5
	default:
		return 9
	}
}

var laneNames = map[int]string{
	1: "steer",
	2: "execute",
	3: "commit",
	4: "channel",
	5: "squash",
}

// WriteChromeTrace renders events as a Chrome trace-event JSON document
// that Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
// Cores appear as processes with one named lane per event kind; span
// events (Dur > 0) render as slices, the rest as instants. meta is
// attached as otherData (workload name, mode, notes); pass nil for
// none.
func WriteChromeTrace(w io.Writer, events []Event, meta map[string]string) error {
	doc := chromeTrace{
		TraceEvents: make([]traceEvent, 0, len(events)+16),
		OtherData:   meta,
	}

	// Name the processes and lanes that actually occur.
	seenPID := map[int]bool{}
	seenLane := map[[2]int]bool{}
	for _, e := range events {
		pid := pidOf(e.Core)
		if !seenPID[pid] {
			seenPID[pid] = true
			name := "machine"
			if e.Core != MachineScope {
				name = fmt.Sprintf("core %d", e.Core)
			}
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": name},
			})
		}
		tid := tidOf(e.Kind)
		if key := [2]int{pid, tid}; !seenLane[key] {
			seenLane[key] = true
			if lane, ok := laneNames[tid]; ok {
				doc.TraceEvents = append(doc.TraceEvents, traceEvent{
					Name: "thread_name", Phase: "M", PID: pid, TID: tid,
					Args: map[string]any{"name": lane},
				})
			}
		}
	}

	for _, e := range events {
		te := traceEvent{
			Name: eventName(e),
			TS:   e.Cycle,
			PID:  pidOf(e.Core),
			TID:  tidOf(e.Kind),
			Args: map[string]any{"gseq": e.GSeq},
		}
		if e.Dur > 0 {
			te.Phase = "X"
			te.Dur = e.Dur
		} else {
			te.Phase = "i"
			te.Scope = "t"
		}
		doc.TraceEvents = append(doc.TraceEvents, te)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// eventName builds the slice label shown in the viewer.
func eventName(e Event) string {
	if e.Detail != "" {
		return fmt.Sprintf("%s %s g=%d", e.Kind, e.Detail, e.GSeq)
	}
	return fmt.Sprintf("%s g=%d", e.Kind, e.GSeq)
}

// WriteChromeTraceRecorder is WriteChromeTrace over a Recorder,
// annotating the metadata with the dropped-event count when the
// recorder overflowed its limit.
func WriteChromeTraceRecorder(w io.Writer, r *Recorder, meta map[string]string) error {
	if r.Dropped > 0 {
		if meta == nil {
			meta = map[string]string{}
		}
		meta["dropped_events"] = fmt.Sprintf("%d", r.Dropped)
	}
	return WriteChromeTrace(w, r.Events, meta)
}
