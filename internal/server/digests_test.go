package server

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/resultcache"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// metric reads one counter from /metricz.
func metric(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	body := get(t, s, "/metricz").Body.String()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metricz %s: %v", name, err)
			}
			return int64(f)
		}
	}
	t.Fatalf("metricz has no %s:\n%s", name, body)
	return 0
}

// TestSimDigestOncePerTrace: the trace digest of a (workload, insts)
// pair is computed once per server. Two identical sims make one digest
// miss (the second is a document hit that captures and saves nothing);
// sims on other machines and modes and a bench experiment's cells over
// the same pair make none.
func TestSimDigestOncePerTrace(t *testing.T) {
	const insts = 2000
	s := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	req := SimRequest{Workload: "gcc", Machine: "small", Insts: insts, Format: "json"}

	first := post(t, s, "/v1/sim", "a", req)
	if first.Code != http.StatusOK || first.Header().Get(HeaderCache) != "miss" {
		t.Fatalf("first sim: %d cache %q\n%s", first.Code, first.Header().Get(HeaderCache), first.Body.String())
	}
	second := post(t, s, "/v1/sim", "a", req)
	if second.Code != http.StatusOK || second.Header().Get(HeaderCache) != "hit" {
		t.Fatalf("second sim: %d cache %q, want 200 hit", second.Code, second.Header().Get(HeaderCache))
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("document hit differs from the miss that stored it")
	}
	if got := metric(t, s, "fgstpd_trace_digest_misses"); got != 1 {
		t.Fatalf("digest misses after two identical sims = %d, want 1", got)
	}
	if got := metric(t, s, "fgstpd_trace_digest_hits"); got != 1 {
		t.Fatalf("digest hits after two identical sims = %d, want 1", got)
	}

	for _, machine := range []string{"small", "medium"} {
		for _, mode := range []string{"all", "fgstp"} {
			r := req
			r.Machine, r.Mode = machine, mode
			if w := post(t, s, "/v1/sim", "a", r); w.Code != http.StatusOK {
				t.Fatalf("sim %s/%s: %d\n%s", machine, mode, w.Code, w.Body.String())
			}
			if got := metric(t, s, "fgstpd_trace_digest_misses"); got != 1 {
				t.Fatalf("sim %s/%s recomputed gcc's digest: %d misses, want 1", machine, mode, got)
			}
		}
	}

	// E2 simulates every workload at insts: its cells key each other
	// workload once and take gcc's digest from the memo, so the server
	// has now computed one digest per workload.
	bench := post(t, s, "/v1/bench", "b", BenchRequest{Experiment: "E2", Insts: insts, Format: "json"})
	if bench.Code != http.StatusOK {
		t.Fatalf("bench: %d\n%s", bench.Code, bench.Body.String())
	}
	if got, want := metric(t, s, "fgstpd_trace_digest_misses"), int64(len(workloads.All())); got != want {
		t.Fatalf("digest misses after E2 = %d, want %d (every workload once)", got, want)
	}
}

// TestSimKeyGolden pins the /v1/sim document key of one fixed request,
// as TestKeyGolden pins the key layout, and requires it to frame the
// digest of a fresh capture's Save bytes where the cell keys frame it.
// A request whose digest is memoised gets the same key without
// capturing its trace.
func TestSimKeyGolden(t *testing.T) {
	newReq := func() *SimRequest {
		req := &SimRequest{Workload: "mcf", Machine: "small", Insts: 2000, Format: "json"}
		if err := req.validate(); err != nil {
			t.Fatal(err)
		}
		return req
	}
	var d traceDigests
	req := newReq()
	got, err := req.cacheKey(&d)
	if err != nil {
		t.Fatal(err)
	}
	const want = "1831e05b28eff0e43ef9afbbf9219da84a87badbfba8cc80095c4545d77b88ef"
	if got != want {
		t.Errorf("sim key golden drifted:\n got %s\nwant %s", got, want)
	}
	if req.tr == nil {
		t.Error("a digest miss did not keep its capture for the run")
	}

	w, _ := workloads.ByName("mcf")
	var tb bytes.Buffer
	if err := w.Trace(2000).Save(&tb); err != nil {
		t.Fatal(err)
	}
	small := config.Small()
	cfg, err := small.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	fresh := resultcache.Key(cmp.EngineVersion, cfg, []byte(resultcache.Key("trace", nil, tb.Bytes())),
		"sim", "all", "2000", "json", "", "0")
	if got != fresh {
		t.Errorf("sim key %s, want %s (framed from a fresh capture's Save digest)", got, fresh)
	}

	again := newReq()
	key, err := again.cacheKey(&d)
	if err != nil || key != got {
		t.Fatalf("memoised key = %s (err %v), want %s", key, err, got)
	}
	if again.tr != nil {
		t.Error("a digest hit captured the trace")
	}
}

// TestTraceDigestBound: past traceDigestCap the memo holds at most the
// cap, and an evicted pair recomputes the same digest.
func TestTraceDigestBound(t *testing.T) {
	const n = traceDigestCap + 8
	w, _ := workloads.ByName("mcf")
	base := w.Trace(n)
	// Pair (mcf, i)'s trace is base's first i records: one capture gives
	// every pair its own digest.
	capture := func(id traceID) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) { return base.Slice(0, int(id.insts)), nil }
	}
	var d traceDigests
	first := make(map[uint64]string, n)
	for insts := uint64(1); insts <= n; insts++ {
		id := traceID{"mcf", insts}
		sum, err := d.digest(id, capture(id))
		if err != nil {
			t.Fatal(err)
		}
		first[insts] = sum
		if l := d.memo.Len(); l > traceDigestCap {
			t.Fatalf("memo holds %d pairs after insts %d, want at most %d", l, insts, traceDigestCap)
		}
	}
	if l := d.memo.Len(); l != traceDigestCap {
		t.Fatalf("memo holds %d pairs after %d lookups, want the cap %d", l, n, traceDigestCap)
	}
	if first[1] == first[2] {
		t.Fatal("different traces share a digest")
	}
	if d.misses.Load() != n || d.hits.Load() != 0 {
		t.Fatalf("misses %d hits %d, want %d and 0", d.misses.Load(), d.hits.Load(), n)
	}
	oldest := traceID{"mcf", 1}
	sum, err := d.digest(oldest, capture(oldest))
	if err != nil {
		t.Fatal(err)
	}
	if sum != first[1] || d.misses.Load() != n+1 {
		t.Fatalf("evicted pair: digest %s after %d misses, want %s recomputed", sum, d.misses.Load(), first[1])
	}
	if l := d.memo.Len(); l > traceDigestCap {
		t.Fatalf("memo holds %d pairs, want at most %d", l, traceDigestCap)
	}
}

// TestTraceDigestSingleFlight: concurrent lookups of a resident pair all
// hit it, and concurrent lookups of a fresh pair compute it once.
func TestTraceDigestSingleFlight(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	tr := w.Trace(200)
	capture := func() (*trace.Trace, error) { return tr, nil }
	var d traceDigests
	resident, fresh := traceID{"mcf", 200}, traceID{"gcc", 200}
	want, err := d.digest(resident, capture)
	if err != nil {
		t.Fatal(err)
	}
	const g = 8
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if sum, err := d.digest(resident, capture); err != nil || sum != want {
				t.Errorf("resident pair: %s (err %v), want %s", sum, err, want)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := d.digest(fresh, capture); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := d.misses.Load(); got != 2 {
		t.Errorf("%d digests computed, want 2 (one per pair)", got)
	}
	if got := d.hits.Load(); got != 2*g-1 {
		t.Errorf("concurrent lookups hit %d times, want %d", got, 2*g-1)
	}
}
