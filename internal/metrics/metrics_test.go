package metrics

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestRecorderLimitAndDrop(t *testing.T) {
	r := &Recorder{Limit: 2}
	for i := 0; i < 5; i++ {
		r.Emit(Event{Cycle: int64(i), Kind: EvIssue})
	}
	if len(r.Events) != 2 || r.Dropped != 3 {
		t.Errorf("got %d events, %d dropped; want 2 and 3", len(r.Events), r.Dropped)
	}
}

func TestCoreSinkTagsCore(t *testing.T) {
	r := &Recorder{}
	s := CoreSink{Sink: r, Core: 1}
	s.Emit(Event{Kind: EvCommit, GSeq: 7})
	if len(r.Events) != 1 || r.Events[0].Core != 1 {
		t.Fatalf("core tag lost: %+v", r.Events)
	}
}

func TestKindString(t *testing.T) {
	if EvSteer.String() != "steer" || EvTransfer.String() != "transfer" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind must be unknown")
	}
}

// The exporter must produce valid JSON in the Chrome trace-event shape
// with spans, instants and metadata lanes.
func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{Cycle: 10, Dur: 3, Core: 0, Kind: EvIssue, GSeq: 1, Detail: "load"},
		{Cycle: 12, Core: 1, Kind: EvCommit, GSeq: 1},
		{Cycle: 14, Core: MachineScope, Kind: EvSquash, GSeq: 5},
		{Cycle: 15, Dur: 2, Core: 1, Kind: EvTransfer, GSeq: 3},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, map[string]string{"workload": "t"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter wrote invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData["workload"] != "t" {
		t.Error("metadata lost")
	}
	var spans, instants, meta int
	for _, te := range doc.TraceEvents {
		switch te["ph"] {
		case "X":
			spans++
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if spans != 2 || instants != 2 {
		t.Errorf("got %d spans, %d instants; want 2 and 2", spans, instants)
	}
	if meta == 0 {
		t.Error("missing process/thread name metadata")
	}
	if !strings.Contains(buf.String(), `"issue load g=1"`) {
		t.Errorf("span label missing:\n%s", buf.String())
	}
}

func TestWriteChromeTraceRecorderReportsDrops(t *testing.T) {
	r := &Recorder{Limit: 1}
	r.Emit(Event{Kind: EvIssue, Dur: 1})
	r.Emit(Event{Kind: EvIssue, Dur: 1})
	var buf bytes.Buffer
	if err := WriteChromeTraceRecorder(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dropped_events":"1"`) {
		t.Errorf("dropped count not reported:\n%s", buf.String())
	}
}

func TestPeakRSS(t *testing.T) {
	bytes, ok := PeakRSS()
	if runtime.GOOS == "linux" {
		if !ok || bytes == 0 {
			t.Errorf("PeakRSS on linux: got %d, ok=%v", bytes, ok)
		}
	} else if ok && bytes == 0 {
		t.Error("ok with zero bytes")
	}
}
