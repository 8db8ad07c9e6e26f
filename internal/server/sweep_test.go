package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/resultcache"
	"repro/internal/workloads"
)

// sweepStream is a parsed fgstpd.sweep/1 response.
type sweepStream struct {
	header  sweepHeader
	units   []sweepUnitRecord
	summary sweepSummary
}

// parseSweep decodes the NDJSON stream of a 200 sweep response,
// checking the header-units-summary envelope shape.
func parseSweep(t *testing.T, w *httptest.ResponseRecorder) *sweepStream {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("sweep response: %d\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("sweep Content-Type = %q, want application/x-ndjson", ct)
	}
	var st sweepStream
	sawHeader, sawSummary := false, false
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if sawSummary {
			t.Fatalf("record after the terminal summary: %s", line)
		}
		var probe struct {
			Schema string `json:"schema"`
			Done   bool   `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream record: %v\n%s", err, line)
		}
		switch {
		case probe.Schema != "":
			if sawHeader {
				t.Fatal("duplicate header record")
			}
			sawHeader = true
			if err := json.Unmarshal(line, &st.header); err != nil {
				t.Fatal(err)
			}
		case probe.Done:
			sawSummary = true
			if err := json.Unmarshal(line, &st.summary); err != nil {
				t.Fatal(err)
			}
		default:
			if !sawHeader {
				t.Fatal("unit record before the header")
			}
			var rec sweepUnitRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			st.units = append(st.units, rec)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawHeader || !sawSummary {
		t.Fatalf("stream missing header (%v) or summary (%v)", sawHeader, sawSummary)
	}
	if st.header.Schema != SweepSchemaVersion {
		t.Fatalf("stream schema = %q, want %q", st.header.Schema, SweepSchemaVersion)
	}
	if len(st.units) != st.header.Units || st.summary.Units != st.header.Units {
		t.Fatalf("stream carried %d unit records, header says %d, summary says %d",
			len(st.units), st.header.Units, st.summary.Units)
	}
	return &st
}

// unitByExperiment indexes a stream's unit records (unique experiments
// per stream in these tests).
func (st *sweepStream) unitByExperiment(t *testing.T, id string) *sweepUnitRecord {
	t.Helper()
	for i := range st.units {
		if st.units[i].Experiment == id {
			return &st.units[i]
		}
	}
	t.Fatalf("no unit record for %s", id)
	return nil
}

// TestSweepByteIdentity is the tentpole acceptance property: every unit
// document of a sweep is byte-identical to fgstpbench stdout for the
// same experiment/insts, and a repeated sweep is served entirely from
// cache — zero cells recomputed.
func TestSweepByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	req := SweepRequest{Experiments: []string{"E1", "E2"}, Insts: []uint64{3000}, Format: "json"}

	first := parseSweep(t, post(t, s, "/v1/sweep", "a", req))
	if first.summary.Exit != 0 || first.summary.OK != 2 {
		t.Fatalf("first sweep summary: %+v", first.summary)
	}
	for _, id := range []string{"E1", "E2"} {
		u := first.unitByExperiment(t, id)
		if u.Status != http.StatusOK || u.Exit != 0 {
			t.Fatalf("unit %s: status %d exit %d", id, u.Status, u.Exit)
		}
		if u.Cache != "miss" {
			t.Fatalf("first sweep unit %s cache = %q, want miss", id, u.Cache)
		}
		if want := benchCLI(t, id, 3000, "json"); !bytes.Equal([]byte(u.Document), want) {
			t.Fatalf("unit %s document differs from fgstpbench stdout", id)
		}
	}

	second := parseSweep(t, post(t, s, "/v1/sweep", "b", req))
	for _, id := range []string{"E1", "E2"} {
		u := second.unitByExperiment(t, id)
		if u.Cache != "hit" {
			t.Fatalf("second sweep unit %s cache = %q, want hit", id, u.Cache)
		}
		if u.Cells.Runs != 0 {
			t.Fatalf("second sweep unit %s ran %d cells, want 0 (document served whole)", id, u.Cells.Runs)
		}
		fu := first.unitByExperiment(t, id)
		if u.Document != fu.Document {
			t.Fatalf("unit %s cached document differs from uncached", id)
		}
	}
	if second.summary.Cells.Runs != 0 {
		t.Fatalf("repeated sweep recomputed %d cells, want 0", second.summary.Cells.Runs)
	}
}

// TestSweepBenchCacheShared pins the doc-cache unification: a sweep
// unit and a /v1/bench request for the same (experiment, insts, format)
// share one cache entry, in both directions.
func TestSweepBenchCacheShared(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	bench := post(t, s, "/v1/bench", "a", BenchRequest{Experiment: "E1", Insts: 3000, Format: "json"})
	if bench.Code != http.StatusOK {
		t.Fatalf("bench: %d\n%s", bench.Code, bench.Body.String())
	}
	st := parseSweep(t, post(t, s, "/v1/sweep", "a",
		SweepRequest{Experiments: []string{"E1"}, Insts: []uint64{3000}, Format: "json"}))
	u := st.unitByExperiment(t, "E1")
	if u.Cache != "hit" {
		t.Fatalf("sweep unit after identical bench request: cache = %q, want hit", u.Cache)
	}
	if u.Document != bench.Body.String() {
		t.Fatal("sweep unit document differs from the bench response body")
	}
}

// cellKeyFor recomputes the cell key the server derives for one
// (preset, mode, workload) cell at the given budget — the test-side
// mirror of cellRunner's key derivation.
func cellKeyFor(t *testing.T, m config.Machine, mode cmp.Mode, workload string, insts uint64) string {
	t.Helper()
	w, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	var tb bytes.Buffer
	if err := w.Trace(insts).Save(&tb); err != nil {
		t.Fatal(err)
	}
	key, err := cellKey(m, mode, workload, resultcache.Key("trace", nil, tb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// entryPath mirrors the store's sharded layout (resultcache.Store.path
// is unexported; the layout is part of the on-disk format).
func entryPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key)
}

// TestSweepCellSharing is the satellite acceptance: E2 and E4 at the
// same budget overlap on every medium single-core cell and every
// full-fabric Fg-STP cell, and the second experiment of the sweep must
// take all of them from the cell cache. Then corrupting one cell entry
// must evict + recompute it with the sweep output unchanged.
func TestSweepCellSharing(t *testing.T) {
	const insts = 2000
	dir := t.TempDir()
	// One worker serialises the units, so E4's overlap with E2 lands as
	// disk hits rather than single-flight shares.
	s := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	req := SweepRequest{Experiments: []string{"E2", "E4"}, Insts: []uint64{insts}, Format: "json"}
	first := parseSweep(t, post(t, s, "/v1/sweep", "a", req))
	if first.summary.Exit != 0 {
		t.Fatalf("sweep summary: %+v", first.summary)
	}

	w := int64(len(workloads.All()))
	// E2 runs first: every cell cold. 3 modes × W workloads.
	e2 := first.unitByExperiment(t, "E2")
	if e2.Cells.Runs != 3*w || e2.Cells.Misses != 3*w || e2.Cells.Hits != 0 {
		t.Fatalf("E2 cells = %+v, want runs=%d misses=%d hits=0", e2.Cells, 3*w, 3*w)
	}
	// E4 runs second: W single cells (shared baseline, deduped
	// in-session across its 5 variants) and the full variant's W Fg-STP
	// cells hit entries E2 just wrote; the 4 mutated-fabric variants
	// miss.
	e4 := first.unitByExperiment(t, "E4")
	if e4.Cells.Runs != 6*w {
		t.Fatalf("E4 ran %d cells, want %d", e4.Cells.Runs, 6*w)
	}
	if e4.Cells.Hits != 2*w {
		t.Fatalf("E4 cell hits = %d, want %d (every shared (mode, workload) cell)", e4.Cells.Hits, 2*w)
	}
	if e4.Cells.Misses != 4*w {
		t.Fatalf("E4 cell misses = %d, want %d", e4.Cells.Misses, 4*w)
	}
	if st := s.cache.Stats(); st.Hits < 2*w {
		t.Fatalf("store hit counter = %d, want >= %d", st.Hits, 2*w)
	}

	t.Run("corrupt-cell-entry", func(t *testing.T) {
		// Evict the rendered-document entries so the re-sweep must
		// recompose from cells, then corrupt one shared cell on disk.
		for _, id := range []string{"E2", "E4"} {
			br := &BenchRequest{Experiment: id, Insts: insts, Format: "json"}
			if err := br.validate(); err != nil {
				t.Fatal(err)
			}
			key, err := br.cacheKey()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(entryPath(dir, key)); err != nil {
				t.Fatalf("document entry missing: %v", err)
			}
		}
		victim := cellKeyFor(t, config.Medium(), cmp.ModeSingle, workloads.All()[0].Name, insts)
		if err := os.WriteFile(entryPath(dir, victim), []byte("garbage, not an entry\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		corruptBefore := s.cache.Stats().Corrupt

		again := parseSweep(t, post(t, s, "/v1/sweep", "a", req))
		for _, id := range []string{"E2", "E4"} {
			if got, want := again.unitByExperiment(t, id).Document, first.unitByExperiment(t, id).Document; got != want {
				t.Fatalf("unit %s document changed after cell corruption", id)
			}
		}
		if got := s.cache.Stats().Corrupt; got <= corruptBefore {
			t.Fatalf("store corrupt counter = %d, want > %d (the damaged entry must be detected)", got, corruptBefore)
		}
		// Exactly the corrupted cell recomputes; everything else hits.
		e2 := again.unitByExperiment(t, "E2")
		if e2.Cells.Hits != 3*w-1 || e2.Cells.Misses != 1 {
			t.Fatalf("post-corruption E2 cells = %+v, want hits=%d misses=1", e2.Cells, 3*w-1)
		}
		e4 := again.unitByExperiment(t, "E4")
		if e4.Cells.Hits != 6*w || e4.Cells.Misses != 0 {
			t.Fatalf("post-corruption E4 cells = %+v, want hits=%d misses=0", e4.Cells, 6*w)
		}
	})
}

// TestSweepValidation pins the 400 taxonomy of the matrix resolver.
func TestSweepValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Exec: instantExec{}})
	cases := []struct {
		name string
		req  SweepRequest
		want string // substring of the error message
	}{
		{"unknown-id", SweepRequest{Experiments: []string{"E2", "E99"}}, `unknown experiment \"E99\"`},
		{"zero-insts", SweepRequest{Experiments: []string{"E1"}, Insts: []uint64{0}}, "insts 0 is invalid"},
		{"huge-insts", SweepRequest{Experiments: []string{"E1"}, Insts: []uint64{instsLimit + 1}}, "exceeds the per-request limit"},
		{"bad-format", SweepRequest{Experiments: []string{"E1"}, Format: "xml"}, `unknown format \"xml\"`},
		{"negative-timeout", SweepRequest{Experiments: []string{"E1"}, TimeoutMillis: -1}, "negative timeout_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/sweep", "t", tc.req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\n%s", w.Code, w.Body.String())
			}
			if kind := errKind(t, w); kind != "invalid" {
				t.Fatalf("error kind = %q, want invalid", kind)
			}
			if !strings.Contains(w.Body.String(), tc.want) {
				t.Fatalf("error message missing %q:\n%s", tc.want, w.Body.String())
			}
		})
	}

	// An oversized matrix must be refused up front, before any unit runs.
	var manyInsts []uint64
	for n := uint64(1); n <= maxSweepUnits; n++ {
		manyInsts = append(manyInsts, n)
	}
	w := post(t, s, "/v1/sweep", "t", SweepRequest{Experiments: []string{"E1", "E2"}, Insts: manyInsts})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "exceeds the limit") {
		t.Fatalf("oversized matrix: %d\n%s", w.Code, w.Body.String())
	}
}

// TestSweepMatrixResolution pins the id-set semantics the bugfix
// introduced: "all" is E1..E10, "all+ext" everything, duplicates
// collapse with first occurrence winning, and the matrix is
// experiment-major.
func TestSweepMatrixResolution(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Exec: instantExec{}})

	st := parseSweep(t, post(t, s, "/v1/sweep", "t",
		SweepRequest{Experiments: []string{"E4", "all", "E2"}, Insts: []uint64{100, 200, 100}}))
	wantIDs := []string{"E4", "E1", "E2", "E3", "E5", "E6", "E7", "E8", "E9", "E10"}
	if got := strings.Join(st.header.Experiments, ","); got != strings.Join(wantIDs, ",") {
		t.Fatalf("resolved experiments = %s, want %s", got, strings.Join(wantIDs, ","))
	}
	if len(st.header.Insts) != 2 {
		t.Fatalf("resolved insts = %v, want the duplicate collapsed", st.header.Insts)
	}
	if st.header.Units != 20 || st.summary.OK != 20 {
		t.Fatalf("units = %d, ok = %d, want 20/20", st.header.Units, st.summary.OK)
	}

	ext := parseSweep(t, post(t, s, "/v1/sweep", "t",
		SweepRequest{Experiments: []string{"all+ext"}, Insts: []uint64{100}}))
	if got, want := len(ext.header.Experiments), 12; got != want {
		t.Fatalf("all+ext resolves %d ids (%v), want %d including extensions",
			got, ext.header.Experiments, want)
	}
}

// benchGate blocks every bench execution until released, reporting
// each unit as it enters (the sim-side gateExec refuses bench jobs).
type benchGate struct {
	entered chan string
	release chan struct{}
}

func newBenchGate() *benchGate {
	return &benchGate{entered: make(chan string, 64), release: make(chan struct{}, 64)}
}

func (g *benchGate) Bench(ctx context.Context, req *BenchRequest) ([]byte, int, error) {
	g.entered <- req.Experiment
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return []byte("done " + req.Experiment + "\n"), 0, nil
}

func (g *benchGate) Sim(ctx context.Context, req *SimRequest) ([]byte, int, error) {
	return nil, 0, errUnexpectedSim
}

var errUnexpectedSim = errors.New("unexpected sim job")

// TestSweepStreamsPartials proves the streaming contract over a real
// connection: unit records arrive while later units are still
// executing, not buffered until the sweep completes.
func TestSweepStreamsPartials(t *testing.T) {
	g := newBenchGate()
	s := newTestServer(t, Config{Workers: 1, Exec: g})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	body, err := json.Marshal(SweepRequest{Experiments: []string{"E1", "E2"}, Insts: []uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	readRecord := func() []byte {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		return append([]byte(nil), sc.Bytes()...)
	}

	// Header lands before any unit finishes.
	var hdr sweepHeader
	if err := json.Unmarshal(readRecord(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Units != 2 {
		t.Fatalf("header units = %d, want 2", hdr.Units)
	}

	<-g.entered // first unit is executing
	g.release <- struct{}{}
	var rec sweepUnitRecord
	if err := json.Unmarshal(readRecord(), &rec); err != nil {
		t.Fatal(err)
	}
	// The first unit record arrived while the second unit has not been
	// released — a buffered-to-completion implementation would hang in
	// readRecord above instead.
	if rec.Status != http.StatusOK {
		t.Fatalf("first unit: %+v", rec)
	}

	<-g.entered
	g.release <- struct{}{}
	if err := json.Unmarshal(readRecord(), &rec); err != nil {
		t.Fatal(err)
	}
	var sum sweepSummary
	if err := json.Unmarshal(readRecord(), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.OK != 2 {
		t.Fatalf("summary: %+v", sum)
	}
}

// TestSweepDegradedUnit pins the partial-failure contract: a degraded
// unit (exit 1) is reported in its record and flips the sweep exit to
// 1, without disturbing sibling units.
func TestSweepDegradedUnit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Exec: degradedExec{}})
	st := parseSweep(t, post(t, s, "/v1/sweep", "t",
		SweepRequest{Experiments: []string{"E1"}, Insts: []uint64{100}}))
	u := st.unitByExperiment(t, "E1")
	if u.Status != http.StatusOK || u.Exit != 1 {
		t.Fatalf("degraded unit: status %d exit %d", u.Status, u.Exit)
	}
	if st.summary.Degraded != 1 || st.summary.Exit != 1 {
		t.Fatalf("summary: %+v", st.summary)
	}
}
