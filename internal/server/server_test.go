package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// newTestServer builds a server and drains it at cleanup so worker
// goroutines never leak across tests.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

// post drives one request through the full handler stack.
func post(t *testing.T, s *Server, path, tenant string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	if tenant != "" {
		r.Header.Set(HeaderTenant, tenant)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// errKind extracts the kind field of a structured error response.
func errKind(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var doc struct {
		Schema string `json:"schema"`
		Error  struct {
			Kind   string `json:"kind"`
			Status int    `json:"status"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, w.Body.String())
	}
	if doc.Schema != ErrorSchemaVersion {
		t.Fatalf("error schema = %q, want %q", doc.Schema, ErrorSchemaVersion)
	}
	if doc.Error.Status != w.Code {
		t.Fatalf("error doc status %d != HTTP status %d", doc.Error.Status, w.Code)
	}
	return doc.Error.Kind
}

// benchCLI renders the experiment exactly the way fgstpbench does: one
// session, Run per id, WriteFormat. The byte-identity tests compare
// server responses against this.
func benchCLI(t *testing.T, id string, insts uint64, format string) []byte {
	t.Helper()
	session := experiments.NewSession(insts, 0)
	ids := []string{id}
	if id == "all" {
		ids = experiments.IDs()
	}
	results := make([]*experiments.Result, 0, len(ids))
	for _, eid := range ids {
		res, err := session.Run(eid)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var buf bytes.Buffer
	if err := experiments.WriteFormat(&buf, format, insts, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// simCLI renders a simulation report exactly the way fgstpsim does.
func simCLI(t *testing.T, workload, machine string, insts uint64, format string) []byte {
	t.Helper()
	m, err := config.ByName(machine)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	tr := w.Trace(insts)
	jl, err := experiments.SimJobs(m, tr, cmp.Modes(), "")
	if err != nil {
		t.Fatal(err)
	}
	runs, errs := sched.RunJobsAll(0, jl)
	var buf bytes.Buffer
	if err := experiments.WriteSimFormat(&buf, format, m.Name, tr, cmp.Modes(), runs, errs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBenchByteIdentity is the acceptance property of the daemon: an
// uncached response, a cached response and the CLI rendering of the
// same job are all byte-identical.
func TestBenchByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	req := BenchRequest{Experiment: "E2", Insts: 3000, Format: "json"}

	first := post(t, s, "/v1/bench", "a", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d\n%s", first.Code, first.Body.String())
	}
	if c := first.Header().Get(HeaderCache); c != "miss" {
		t.Fatalf("first request cache state = %q, want miss", c)
	}
	if e := first.Header().Get(HeaderExit); e != "0" {
		t.Fatalf("exit = %q, want 0", e)
	}

	second := post(t, s, "/v1/bench", "b", req)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d", second.Code)
	}
	if c := second.Header().Get(HeaderCache); c != "hit" {
		t.Fatalf("second request cache state = %q, want hit", c)
	}

	want := benchCLI(t, "E2", 3000, "json")
	if !bytes.Equal(first.Body.Bytes(), want) {
		t.Errorf("uncached response differs from CLI rendering (%d vs %d bytes)", first.Body.Len(), len(want))
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("cached response differs from uncached response")
	}
}

// TestSimByteIdentity: same property for the /v1/sim endpoint and the
// fgstp.sim/1 schema.
func TestSimByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	req := SimRequest{Workload: "mcf", Machine: "small", Insts: 2000, Format: "json"}

	first := post(t, s, "/v1/sim", "a", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d\n%s", first.Code, first.Body.String())
	}
	second := post(t, s, "/v1/sim", "a", req)
	if c := second.Header().Get(HeaderCache); c != "hit" {
		t.Fatalf("second request cache state = %q, want hit", c)
	}
	want := simCLI(t, "mcf", "small", 2000, "json")
	if !bytes.Equal(first.Body.Bytes(), want) {
		t.Errorf("uncached response differs from CLI rendering:\n%s\nwant:\n%s", first.Body.String(), want)
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("cached response differs from uncached response")
	}
	var doc struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &doc); err != nil || doc.Schema != experiments.SimSchemaVersion {
		t.Errorf("response schema = %q (err %v), want %q", doc.Schema, err, experiments.SimSchemaVersion)
	}
}

// TestSimSampledEstimates: a sim request with simpoint_interval set
// carries the per-mode sampled estimates in its document, and sampled
// requests never share a cache entry with plain ones (the interval is a
// cache-key component).
func TestSimSampledEstimates(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	sampled := SimRequest{Workload: "mcf", Machine: "small", Insts: 4000, Format: "json", SimpointInterval: 1000}

	first := post(t, s, "/v1/sim", "a", sampled)
	if first.Code != http.StatusOK {
		t.Fatalf("sampled request: %d\n%s", first.Code, first.Body.String())
	}
	var doc struct {
		Simpoint []experiments.SimEstimate `json:"simpoint"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Simpoint) != len(cmp.Modes()) {
		t.Fatalf("%d estimates, want %d", len(doc.Simpoint), len(cmp.Modes()))
	}
	for _, e := range doc.Simpoint {
		if e.Error != "" {
			t.Errorf("estimate for %s failed: %s", e.Mode, e.Error)
			continue
		}
		if !(e.IPC > 0) || !(e.IPCLow > 0) || e.IPCLow > e.IPC || e.IPCHigh < e.IPC {
			t.Errorf("estimate for %s malformed: ipc %g ci [%g, %g]", e.Mode, e.IPC, e.IPCLow, e.IPCHigh)
		}
		if e.Interval != 1000 || e.Points < 1 {
			t.Errorf("estimate for %s: interval %d points %d", e.Mode, e.Interval, e.Points)
		}
	}

	// The equivalent plain request must miss the cache: its key differs
	// from the sampled request's.
	plain := SimRequest{Workload: "mcf", Machine: "small", Insts: 4000, Format: "json"}
	resp := post(t, s, "/v1/sim", "a", plain)
	if resp.Code != http.StatusOK {
		t.Fatalf("plain request: %d", resp.Code)
	}
	if c := resp.Header().Get(HeaderCache); c != "miss" {
		t.Errorf("plain request after sampled request: cache %q, want miss", c)
	}
	if bytes.Equal(resp.Body.Bytes(), first.Body.Bytes()) {
		t.Error("plain response identical to sampled response")
	}

	// A repeat of the sampled request is served from the cache,
	// byte-identical.
	repeat := post(t, s, "/v1/sim", "b", sampled)
	if c := repeat.Header().Get(HeaderCache); c != "hit" {
		t.Errorf("sampled repeat: cache %q, want hit", c)
	}
	if !bytes.Equal(repeat.Body.Bytes(), first.Body.Bytes()) {
		t.Error("cached sampled response differs from uncached")
	}
}

func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Exec: instantExec{}})
	cases := []struct {
		name string
		path string
		body any
		code int
		kind string
	}{
		{"unknown experiment", "/v1/bench", BenchRequest{Experiment: "E99"}, http.StatusBadRequest, "invalid"},
		{"unknown format", "/v1/bench", BenchRequest{Experiment: "E1", Format: "xml"}, http.StatusBadRequest, "invalid"},
		{"insts over limit", "/v1/bench", BenchRequest{Experiment: "E1", Insts: instsLimit + 1}, http.StatusBadRequest, "invalid"},
		{"unknown workload", "/v1/sim", SimRequest{Workload: "nope"}, http.StatusBadRequest, "invalid"},
		{"unknown mode", "/v1/sim", SimRequest{Mode: "turbo", Insts: 100}, http.StatusBadRequest, "invalid"},
		{"unknown fault", "/v1/sim", SimRequest{Inject: "gremlins", Insts: 100}, http.StatusBadRequest, "invalid"},
		{"simpoint interval negative", "/v1/sim", SimRequest{Insts: 5000, SimpointInterval: -1}, http.StatusBadRequest, "invalid"},
		{"simpoint interval below floor", "/v1/sim", SimRequest{Insts: 5000, SimpointInterval: simpointIntervalFloor - 1}, http.StatusBadRequest, "invalid"},
		{"simpoint interval over insts", "/v1/sim", SimRequest{Insts: 5000, SimpointInterval: 6000}, http.StatusBadRequest, "invalid"},
		{"chaos disabled", "/v1/sim", SimRequest{Inject: "livelock", Insts: 100}, http.StatusForbidden, "chaos_disabled"},
		{"unknown field", "/v1/bench", map[string]any{"experiments": "E1"}, http.StatusBadRequest, "invalid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, tc.path, "t", tc.body)
			if w.Code != tc.code {
				t.Fatalf("status = %d, want %d\n%s", w.Code, tc.code, w.Body.String())
			}
			if k := errKind(t, w); k != tc.kind {
				t.Fatalf("kind = %q, want %q", k, tc.kind)
			}
		})
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/bench", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/bench = %d, want 405", w.Code)
	}
}

// instantExec completes every job immediately with a fixed payload.
type instantExec struct{}

func (instantExec) Bench(ctx context.Context, req *BenchRequest) ([]byte, int, error) {
	return []byte("bench-payload\n"), 0, nil
}
func (instantExec) Sim(ctx context.Context, req *SimRequest) ([]byte, int, error) {
	return []byte("sim-payload\n"), 0, nil
}

// gateExec blocks every execution until released, reporting each job as
// it enters; jobs are identified by their Insts value.
type gateExec struct {
	entered chan uint64
	release chan struct{}
	mu      sync.Mutex
	order   []uint64
}

func newGateExec() *gateExec {
	return &gateExec{entered: make(chan uint64, 64), release: make(chan struct{}, 64)}
}

func (g *gateExec) Sim(ctx context.Context, req *SimRequest) ([]byte, int, error) {
	g.mu.Lock()
	g.order = append(g.order, req.Insts)
	g.mu.Unlock()
	g.entered <- req.Insts
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return []byte(fmt.Sprintf("done %d\n", req.Insts)), 0, nil
}

func (g *gateExec) Bench(ctx context.Context, req *BenchRequest) ([]byte, int, error) {
	return nil, 0, fmt.Errorf("unexpected bench job")
}

// asyncPost fires a request in the background and delivers the recorder
// once the handler returns.
func asyncPost(t *testing.T, s *Server, path, tenant string, body any) <-chan *httptest.ResponseRecorder {
	t.Helper()
	ch := make(chan *httptest.ResponseRecorder, 1)
	go func() { ch <- post(t, s, path, tenant, body) }()
	return ch
}

// waitQueued polls until n jobs sit in the queue.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if total, _ := s.q.depth(); total >= n {
			return
		}
		if time.Now().After(deadline) {
			total, _ := s.q.depth()
			t.Fatalf("queue depth stuck at %d, want %d", total, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressure: a tenant over its queue bound gets 429 with a
// Retry-After hint; the queued jobs still complete once the worker
// frees up.
func TestBackpressure(t *testing.T) {
	g := newGateExec()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 1, ShedMark: 100, Exec: g})
	req := func(insts uint64) SimRequest { return SimRequest{Workload: "mcf", Insts: insts, Mode: "single"} }

	r1 := asyncPost(t, s, "/v1/sim", "a", req(1001))
	<-g.entered // job 1 occupies the only worker
	r2 := asyncPost(t, s, "/v1/sim", "a", req(1002))
	waitQueued(t, s, 1)

	rejected := post(t, s, "/v1/sim", "a", req(1003))
	if rejected.Code != http.StatusTooManyRequests {
		t.Fatalf("third job = %d, want 429\n%s", rejected.Code, rejected.Body.String())
	}
	if k := errKind(t, rejected); k != "queue_full" {
		t.Fatalf("kind = %q, want queue_full", k)
	}
	if ra := rejected.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant is not throttled by tenant a's full queue.
	rb := asyncPost(t, s, "/v1/sim", "b", req(2001))
	waitQueued(t, s, 2)

	g.release <- struct{}{}
	g.release <- struct{}{}
	g.release <- struct{}{}
	for _, ch := range []<-chan *httptest.ResponseRecorder{r1, r2, rb} {
		w := <-ch
		if w.Code != http.StatusOK {
			t.Fatalf("queued job = %d, want 200\n%s", w.Code, w.Body.String())
		}
	}
}

// TestLoadShed: above the global watermark every tenant sees 503.
func TestLoadShed(t *testing.T) {
	g := newGateExec()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 10, ShedMark: 1, Exec: g})
	req := func(insts uint64) SimRequest { return SimRequest{Workload: "mcf", Insts: insts, Mode: "single"} }

	r1 := asyncPost(t, s, "/v1/sim", "a", req(1001))
	<-g.entered
	r2 := asyncPost(t, s, "/v1/sim", "a", req(1002))
	waitQueued(t, s, 1)

	shed := post(t, s, "/v1/sim", "b", req(3001))
	if shed.Code != http.StatusServiceUnavailable {
		t.Fatalf("over watermark = %d, want 503", shed.Code)
	}
	if k := errKind(t, shed); k != "load_shed" {
		t.Fatalf("kind = %q, want load_shed", k)
	}
	g.release <- struct{}{}
	g.release <- struct{}{}
	<-r1
	<-r2
}

// TestFairDequeue: with one worker and a flooding tenant, a second
// tenant's single job runs before the flooder's backlog is exhausted.
func TestFairDequeue(t *testing.T) {
	g := newGateExec()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 10, ShedMark: 100, Exec: g})
	req := func(insts uint64) SimRequest { return SimRequest{Workload: "mcf", Insts: insts, Mode: "single"} }

	ra1 := asyncPost(t, s, "/v1/sim", "a", req(1001))
	<-g.entered // a1 occupies the worker
	var pend []<-chan *httptest.ResponseRecorder
	for i, q := range []uint64{1002, 1003, 1004} {
		pend = append(pend, asyncPost(t, s, "/v1/sim", "a", req(q)))
		waitQueued(t, s, i+1)
	}
	pend = append(pend, asyncPost(t, s, "/v1/sim", "b", req(2001)))
	waitQueued(t, s, 4)

	for i := 0; i < 5; i++ {
		g.release <- struct{}{}
	}
	w := <-ra1
	if w.Code != http.StatusOK {
		t.Fatalf("a1 = %d", w.Code)
	}
	for _, ch := range pend {
		if w := <-ch; w.Code != http.StatusOK {
			t.Fatalf("queued job = %d", w.Code)
		}
	}
	g.mu.Lock()
	order := append([]uint64(nil), g.order...)
	g.mu.Unlock()
	posB := -1
	for i, insts := range order {
		if insts == 2001 {
			posB = i
		}
	}
	if posB == -1 {
		t.Fatalf("tenant b's job never ran: order %v", order)
	}
	if posB == len(order)-1 {
		t.Fatalf("tenant b starved behind tenant a's backlog: order %v", order)
	}
}

// timeoutExec parks until the job context expires.
type timeoutExec struct{}

func (timeoutExec) Sim(ctx context.Context, req *SimRequest) ([]byte, int, error) {
	<-ctx.Done()
	return nil, 0, ctx.Err()
}
func (timeoutExec) Bench(ctx context.Context, req *BenchRequest) ([]byte, int, error) {
	<-ctx.Done()
	return nil, 0, ctx.Err()
}

// TestDeadline: a hung job is killed by its deadline and reported as a
// structured 504, not a hung connection.
func TestDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Exec: timeoutExec{}})
	w := post(t, s, "/v1/sim", "t", SimRequest{Workload: "mcf", Insts: 100, Mode: "single", TimeoutMillis: 50})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("hung job = %d, want 504\n%s", w.Code, w.Body.String())
	}
	if k := errKind(t, w); k != "timeout" {
		t.Fatalf("kind = %q, want timeout", k)
	}
}

// expiringCtx times out after its first n Err calls.
type expiringCtx struct {
	context.Context
	n atomic.Int64
}

func (c *expiringCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// lateEstimatesExec runs the real engine under a deadline that passes
// while a one-worker sampled report computes its first estimate: the
// report checks its context once before each task and each estimate
// slice, so the full runs and the first estimate start, and the
// estimate's first slice sees the deadline.
type lateEstimatesExec struct{ engineExecutor }

func (x lateEstimatesExec) Sim(ctx context.Context, req *SimRequest) ([]byte, int, error) {
	late := &expiringCtx{Context: ctx}
	late.n.Store(int64(len(req.modes) + 1))
	return x.engineExecutor.Sim(late, req)
}

// TestSimDeadlineDuringEstimates: a deadline that passes after a sampled
// request's full runs, while its estimates compute, fails the request
// with a 504 timeout and caches nothing, so a repeat computes again.
func TestSimDeadlineDuringEstimates(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), Exec: lateEstimatesExec{}})
	req := SimRequest{Workload: "mcf", Machine: "small", Insts: 4000, Format: "json", SimpointInterval: 1000, Jobs: 1}
	for i := 0; i < 2; i++ {
		w := post(t, s, "/v1/sim", "t", req)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d = %d, want 504\n%s", i, w.Code, w.Body.String())
		}
		if k := errKind(t, w); k != "timeout" {
			t.Fatalf("request %d kind = %q, want timeout", i, k)
		}
	}
	if keys, err := s.cache.Keys(); err != nil || len(keys) != 0 {
		t.Fatalf("cache holds %d entries (err %v) after timed-out requests, want none", len(keys), err)
	}
}

// TestDegradedNotCached: a completed-with-failures document (exit 1) is
// served but never memoised — the next identical request recomputes.
func TestDegradedNotCached(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), Exec: degradedExec{}})
	req := SimRequest{Workload: "mcf", Insts: 500, Mode: "single"}
	for i := 0; i < 2; i++ {
		w := post(t, s, "/v1/sim", "t", req)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d = %d", i, w.Code)
		}
		if e := w.Header().Get(HeaderExit); e != "1" {
			t.Fatalf("request %d exit = %q, want 1", i, e)
		}
		if c := w.Header().Get(HeaderCache); c != "miss" {
			t.Fatalf("request %d cache state = %q, want miss (degraded results must not be cached)", i, c)
		}
	}
}

type degradedExec struct{}

func (degradedExec) Sim(ctx context.Context, req *SimRequest) ([]byte, int, error) {
	return []byte("partial document\n"), 1, nil
}
func (degradedExec) Bench(ctx context.Context, req *BenchRequest) ([]byte, int, error) {
	return []byte("partial document\n"), 1, nil
}

// TestLifecycle: readyz flips on drain, draining refuses new work with
// a structured 503, healthz stays live, and the cache index is flushed.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, CacheDir: dir, Exec: instantExec{}})
	if err != nil {
		t.Fatal(err)
	}
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	if w := get(t, s, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz = %d", w.Code)
	}
	if w := post(t, s, "/v1/sim", "t", SimRequest{Workload: "mcf", Insts: 100, Mode: "single"}); w.Code != http.StatusOK {
		t.Fatalf("pre-drain job = %d", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if w := get(t, s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained = %d, want 503", w.Code)
	}
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz while drained = %d, want 200", w.Code)
	}
	w := post(t, s, "/v1/sim", "t", SimRequest{Workload: "mcf", Insts: 100, Mode: "single"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain job = %d, want 503", w.Code)
	}
	if k := errKind(t, w); k != "draining" {
		t.Fatalf("kind = %q, want draining", k)
	}
	// The drain flushed a parseable cache index.
	idx := get(t, s, "/metricz")
	if idx.Code != http.StatusOK {
		t.Fatalf("metricz = %d", idx.Code)
	}
	if !strings.Contains(idx.Body.String(), "fgstpd_requests") {
		t.Fatalf("metricz missing counters:\n%s", idx.Body.String())
	}
}

// metricValue extracts one "name value" sample from a /metricz body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		var n string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &n, &v); err == nil && n == name {
			return v
		}
	}
	t.Fatalf("metricz missing %q:\n%s", name, body)
	return 0
}

// hotblockLines extracts the hotblock_* samples of a /metricz body for
// whole-section comparison.
func hotblockLines(body string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "hotblock_") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetriczHotBlock: an engine-backed sim request folds its hot-block
// replay telemetry into the daemon aggregate — nonzero template and
// replay counters for a single-core mcf run, whose pointer chase arms a
// periodic-miss template — and a cached repeat, which simulates
// nothing, leaves the aggregate untouched.
func TestMetriczHotBlock(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	req := SimRequest{Workload: "mcf", Machine: "medium", Insts: 20_000, Mode: "single", Format: "json"}
	if w := post(t, s, "/v1/sim", "t", req); w.Code != http.StatusOK {
		t.Fatalf("sim = %d\n%s", w.Code, w.Body.String())
	}
	body := get(t, s, "/metricz").Body.String()
	for _, name := range []string{
		"hotblock_templates",
		"hotblock_templates_periodic",
		"hotblock_replays",
		"hotblock_replayed_insts",
	} {
		if metricValue(t, body, name) == 0 {
			t.Errorf("metricz %s = 0 after a single-core run that should replay:\n%s", name, hotblockLines(body))
		}
	}
	w := post(t, s, "/v1/sim", "t", req)
	if c := w.Header().Get(HeaderCache); c != "hit" {
		t.Fatalf("repeat cache state = %q, want hit", c)
	}
	after := get(t, s, "/metricz").Body.String()
	if a, b := hotblockLines(body), hotblockLines(after); a != b {
		t.Errorf("cached repeat moved the hot-block aggregate\n before: %s\n after:  %s", a, b)
	}
}

// TestMetricz: counters reflect traffic and render deterministically.
func TestMetricz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), Exec: instantExec{}})
	req := SimRequest{Workload: "mcf", Insts: 700, Mode: "single"}
	post(t, s, "/v1/sim", "t", req) // miss
	post(t, s, "/v1/sim", "t", req) // hit
	post(t, s, "/v1/sim", "t", SimRequest{Workload: "nope"})
	body := get(t, s, "/metricz").Body.String()
	for _, want := range []string{
		"fgstpd_requests 3",
		"fgstpd_ok 2",
		"fgstpd_errors 1",
		"fgstpd_cache_hits 1",
		"fgstpd_cache_misses 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricz missing %q:\n%s", want, body)
		}
	}
}
