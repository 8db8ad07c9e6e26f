package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestRunIPC(t *testing.T) {
	r := Run{Cycles: 100, Insts: 250}
	if got := r.IPC(); got != 2.5 {
		t.Errorf("IPC = %v, want 2.5", got)
	}
	empty := Run{}
	if empty.IPC() != 0 {
		t.Error("IPC with zero cycles must be 0")
	}
}

func TestRunExtra(t *testing.T) {
	var r Run
	if r.Get("missing") != 0 {
		t.Error("missing extra must be 0")
	}
	r.Set("squashes", 42)
	if r.Get("squashes") != 42 {
		t.Error("extra not stored")
	}
}

func TestNames(t *testing.T) {
	if got := Names(nil); got == nil || len(got) != 0 {
		t.Errorf("Names(nil) = %#v, want an empty slice", got)
	}
	got := Names(map[string]float64{"z": 1, "a": 2, "m": 3})
	if strings.Join(got, ",") != "a,m,z" {
		t.Errorf("Names = %v, want name order", got)
	}
}

// The counters encode in name order whatever order they were set in,
// compact and indented, with shortest-round-trip floats.
func TestRunJSONStable(t *testing.T) {
	r := Run{Workload: "mcf", Mode: "fgstp", Cycles: 1000, Insts: 2500}
	r.Set("z_last", 3)
	r.Set("replicated_frac", 0.1)
	r.Set("comm_per_kinst", 1e21)
	r.Set("a_first", 1e-7)
	got, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Workload":"mcf","Mode":"fgstp","Cycles":1000,"Insts":2500,` +
		`"metrics":{"a_first":1e-7,"comm_per_kinst":1e+21,"replicated_frac":0.1,"z_last":3}}`
	if string(got) != want {
		t.Errorf("compact encoding:\ngot  %s\nwant %s", got, want)
	}
	got, err = json.MarshalIndent(&r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const wantIndent = `{
  "Workload": "mcf",
  "Mode": "fgstp",
  "Cycles": 1000,
  "Insts": 2500,
  "metrics": {
    "a_first": 1e-7,
    "comm_per_kinst": 1e+21,
    "replicated_frac": 0.1,
    "z_last": 3
  }
}`
	if string(got) != wantIndent {
		t.Errorf("indented encoding:\ngot\n%s\nwant\n%s", got, wantIndent)
	}
	if got, _ := json.Marshal(&Run{}); string(got) != `{"Workload":"","Mode":"","Cycles":0,"Insts":0}` {
		t.Errorf("a Run without counters must omit metrics: %s", got)
	}
}

// registryEraRun is a cell payload as the daemon's cell cache stored it
// when counters lived in an ordered registry type: gcc, 3000
// instructions, single mode on the medium machine.
const registryEraRun = `{"Workload":"gcc","Mode":"single","Cycles":9915,"Insts":3000,"metrics":{` +
	`"active_cores":1,"bpred_accuracy":0.7543478260869565,"branch_mispredicts":113,` +
	`"cycles_active":1416,"cycles_channel_wait":0,"cycles_commit_blocked":0,` +
	`"cycles_execute":7829,"cycles_fetch_starved":585,"cycles_issue_wait":85,` +
	`"dispatch_stall_copy":0,"dispatch_stall_iq":0,"dispatch_stall_lsq":0,` +
	`"dispatch_stall_rob":519,"dram_accesses":92,"fetched_uops":3000,` +
	`"indirect_mispredicts":0,"issued_uops":3000,"l1d_accesses":214,` +
	`"l1d_miss_rate":0.4252336448598131,"l1i_accesses":446,"l2_accesses":95,` +
	`"l2_miss_rate":1,"loads_forwarded":0,"loads_speculative":0,"mem_violations":0,` +
	`"squashed_uops":0,"squashes":0}}`

// Cell-cache entries written before counters became a plain map must
// decode and re-encode byte for byte, so they still compose documents.
func TestRunDecodesRegistryEra(t *testing.T) {
	var r Run
	if err := json.Unmarshal([]byte(registryEraRun), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != 27 || r.Get("bpred_accuracy") != 0.7543478260869565 || r.Cycles != 9915 {
		t.Errorf("decoded run lost values: %+v", r)
	}
	got, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != registryEraRun {
		t.Errorf("re-encoding moved:\ngot  %s\nwant %s", got, registryEraRun)
	}
}

func TestSpeedup(t *testing.T) {
	base := &Run{Cycles: 1000}
	fast := &Run{Cycles: 800}
	if got := Speedup(base, fast); got != 1.25 {
		t.Errorf("speedup = %v, want 1.25", got)
	}
	if Speedup(base, &Run{}) != 0 {
		t.Error("speedup vs zero cycles must be 0")
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := Geomean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(1,1,1) = %v, want 1", got)
	}
	if Geomean(nil) != 0 {
		t.Error("geomean of empty must be 0")
	}
	// Non-positive entries are skipped, not poisoning.
	if got := Geomean([]float64{0, -3, 4}); got != 4 {
		t.Errorf("geomean with invalids = %v, want 4", got)
	}
}

// Property: geomean lies between min and max of positive inputs.
func TestGeomeanBounds(t *testing.T) {
	f := func(a, b, c uint16) bool {
		vals := []float64{float64(a)/100 + 0.01, float64(b)/100 + 0.01, float64(c)/100 + 0.01}
		g := Geomean(vals)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Results", "bench", "ipc", "speedup")
	tb.AddRowf("mcf", 0.5, 1.25)
	tb.AddRowf("bzip2", 1.25, 1.1)
	out := tb.String()
	if !strings.Contains(out, "Results") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "bench") || !strings.Contains(out, "speedup") {
		t.Error("missing headers")
	}
	if !strings.Contains(out, "0.500") || !strings.Contains(out, "1.250") {
		t.Errorf("missing formatted floats:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// All data lines must be equally wide (alignment).
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header and rule widths differ: %d vs %d", len(lines[1]), len(lines[2]))
	}
}

// Regression: String must survive a row with zero cells (AddRow with
// no arguments) and render it as blank cells.
func TestTableEmptyRow(t *testing.T) {
	tb := NewTable("", "k", "v")
	tb.AddRow("zeta", "1")
	tb.AddRow() // no cells at all
	tb.AddRow("alpha", "2")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header, rule, 3 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	if strings.TrimSpace(lines[3]) != "" {
		t.Errorf("empty row should render blank, got %q", lines[3])
	}
}

// Regression: pad must count runes, not bytes, so UTF-8 cells keep the
// columns aligned. Golden rendering with a multi-byte cell.
func TestTableUTF8Alignment(t *testing.T) {
	tb := NewTable("", "bench", "µops/cycle")
	tb.AddRow("mcf", "1.5")
	tb.AddRow("naïve-π", "0.7")
	got := tb.String()
	want := "" +
		"bench    µops/cycle\n" +
		"-------  ----------\n" +
		"mcf      1.5       \n" +
		"naïve-π  0.7       \n"
	if got != want {
		t.Errorf("UTF-8 table misaligned:\ngot:\n%q\nwant:\n%q", got, want)
	}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	w := utf8.RuneCountInString(lines[0])
	for i, l := range lines {
		if utf8.RuneCountInString(l) != w {
			t.Errorf("line %d rune width %d, want %d: %q", i, utf8.RuneCountInString(l), w, l)
		}
	}
}

func TestTableAccessors(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("x") // short row: padded with an empty cell
	tb.AddRow("y", "z")
	if got := tb.Headers(); len(got) != 2 || got[0] != "a" {
		t.Errorf("Headers = %v", got)
	}
	rows := tb.Rows()
	if len(rows) != 2 {
		t.Fatalf("Rows = %d, want 2", len(rows))
	}
	if len(rows[0]) != 2 || rows[0][1] != "" {
		t.Errorf("short row not padded: %v", rows[0])
	}
	rows[1][0] = "mutated"
	if tb.Rows()[1][0] != "y" {
		t.Error("Rows must return a copy")
	}
}

func TestGeomeanN(t *testing.T) {
	gm, excluded := GeomeanN([]float64{2, 8, 0, -1})
	if math.Abs(gm-4) > 1e-12 || excluded != 2 {
		t.Errorf("GeomeanN = (%v, %d), want (4, 2)", gm, excluded)
	}
	gm, excluded = GeomeanN(nil)
	if gm != 0 || excluded != 0 {
		t.Errorf("GeomeanN(nil) = (%v, %d), want (0, 0)", gm, excluded)
	}
	gm, excluded = GeomeanN([]float64{0, 0})
	if gm != 0 || excluded != 2 {
		t.Errorf("GeomeanN(zeros) = (%v, %d), want (0, 2)", gm, excluded)
	}
}

// A table does not sort: rows render in the order they were added
// (renderers sort their keys first), and cells past the header count
// are dropped.
func TestTableSortAndOverflow(t *testing.T) {
	tb := NewTable("", "k", "v")
	tb.AddRow("zeta", "1", "extra-dropped")
	tb.AddRow("alpha")
	out := tb.String()
	if strings.Index(out, "zeta") > strings.Index(out, "alpha") {
		t.Error("rows not in insertion order")
	}
	if strings.Contains(out, "extra-dropped") {
		t.Error("overflow cell must be dropped")
	}
}
