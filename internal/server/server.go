// Package server is the fgstpd daemon core: an HTTP/JSON front end
// over the simulation engine that a fleet of tenants can share without
// sharing fate. It layers the robustness machinery the CLIs already
// have — panic containment, livelock watchdogs, fault-injection drills,
// the 0/1/2 exit taxonomy — under a server contract:
//
//   - Isolation: a poisoned request (panic, livelock, injected fault)
//     returns a structured error response; it never takes down the
//     process or a sibling tenant's request.
//   - Deadlines: every job runs under a context deadline (server
//     default, per-request override, hard server maximum); client
//     disconnect cancels the job.
//   - Backpressure: bounded per-tenant queues with fair round-robin
//     dequeue, 429 + Retry-After on a full tenant queue, 503 above the
//     global load-shed watermark.
//   - Caching: a content-addressed result cache (internal/resultcache)
//     serves repeat jobs without re-simulating; byte-identical engine
//     determinism makes cached responses correct by construction.
//     Degraded results (FAIL cells, chaos drills) are never memoised.
//   - Lifecycle: /healthz (liveness), /readyz (draining flips to 503),
//     Drain finishes queued jobs, refuses new ones and flushes the
//     cache index.
//
// Responses carry the CLI export schemas (fgstp.bench/1, fgstp.sim/1)
// rendered by the same writers the CLIs use, so a daemon response is
// byte-identical to the corresponding fgstpbench/fgstpsim stdout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmp"
	"repro/internal/resultcache"
	"repro/internal/sched"
	"repro/internal/stats"
)

// ErrorSchemaVersion identifies the structured error document every
// non-200 response carries.
const ErrorSchemaVersion = "fgstpd.error/1"

// Response headers.
const (
	// HeaderExit carries the CLI exit code of a 200 response: "0" (every
	// cell succeeded) or "1" (completed with FAIL cells).
	HeaderExit = "X-Fgstpd-Exit"
	// HeaderCache reports how the payload was obtained: "hit" (served
	// from the result cache), "miss" (computed and cached) or "bypass"
	// (computed, not cacheable — chaos drills and degraded results).
	HeaderCache = "X-Fgstpd-Cache"
	// HeaderTenant names the requesting tenant for admission control;
	// absent means the "anonymous" tenant.
	HeaderTenant = "X-Tenant"
)

// Config tunes a Server. The zero value picks workable defaults.
type Config struct {
	// Workers is the number of job-executing goroutines (<= 0 picks
	// GOMAXPROCS). Each job fans its own simulations out internally, so
	// a small worker count already saturates the machine.
	Workers int
	// QueueCap bounds each tenant's queue (<= 0 picks 8); enqueueing
	// beyond it returns 429 with Retry-After.
	QueueCap int
	// ShedMark is the global queued-jobs watermark (<= 0 picks
	// 4*QueueCap); above it every tenant sees 503 until the queue
	// drains.
	ShedMark int
	// Timeout is the default per-job deadline, queue wait included
	// (<= 0 picks 2 minutes). A request may shorten it via timeout_ms
	// but never exceed it.
	Timeout time.Duration
	// CacheDir enables the content-addressed result cache in this
	// directory ("" disables caching).
	CacheDir string
	// AllowChaos accepts fault-injection requests (inject fields);
	// disabled, they are rejected with 403.
	AllowChaos bool
	// Exec substitutes the job executor (tests); nil runs the engine.
	Exec Executor
}

// result is the terminal state of one job, ready to render.
type result struct {
	status int    // HTTP status
	exit   int    // CLI exit code, meaningful for status 200
	cache  string // hit | miss | bypass, meaningful for status 200
	body   []byte // payload (200) — error docs render from errDoc
	errDoc *ErrorBody
}

// ErrorBody is the error half of the fgstpd.error/1 document.
type ErrorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Status  int    `json:"status"`
	// RetryAfterSec hints when to retry a 429/503.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// Server is the daemon core. Create with New, mount Handler, stop with
// Drain.
type Server struct {
	cfg   Config
	exec  Executor
	cache *resultcache.Store
	q     *queue
	wg    sync.WaitGroup
	mux   *http.ServeMux

	// digests memoises trace digests for every request the server
	// handles: /v1/sim keys and the cell keys of bench and sweep units.
	digests traceDigests

	draining atomic.Bool

	// Counters feed /metricz; atomics because handlers race.
	nRequests  atomic.Int64
	nOK        atomic.Int64
	nDegraded  atomic.Int64
	nErrors    atomic.Int64
	nRejected  atomic.Int64 // 429: tenant queue full
	nShed      atomic.Int64 // 503: watermark or draining
	nPanics    atomic.Int64
	nLivelocks atomic.Int64
	nTimeouts  atomic.Int64
	nCacheHit  atomic.Int64
	nCacheMiss atomic.Int64
	nBypass    atomic.Int64

	// Sweep and cell-cache counters: sweeps counts /v1/sweep requests,
	// units the cells of the request matrix, unit failures the units
	// that ended non-200. cells aggregates per-cell cache traffic across
	// every request (bench and sweep alike).
	nSweeps        atomic.Int64
	nSweepUnits    atomic.Int64
	nSweepUnitFail atomic.Int64
	cells          cellStats
}

// New builds a server, opens the cache (if configured) and starts the
// worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = sched.Workers(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 8
	}
	if cfg.ShedMark <= 0 {
		cfg.ShedMark = 4 * cfg.QueueCap
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	s := &Server{cfg: cfg, exec: cfg.Exec, q: newQueue(cfg.QueueCap, cfg.ShedMark)}
	if s.exec == nil {
		// The engine executor needs the server back-reference for the
		// cell cache, so it is wired after construction.
		s.exec = engineExecutor{srv: s}
	}
	if cfg.CacheDir != "" {
		c, err := resultcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/bench", s.handleBench)
	s.mux.HandleFunc("/v1/sim", s.handleSim)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metricz", s.handleMetricz)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain performs the graceful-shutdown sequence: stop admitting jobs
// (readyz flips to 503, enqueue returns draining), let every queued and
// in-flight job finish, then flush the cache index. ctx bounds the
// wait; on expiry the workers are abandoned (the process is exiting
// anyway) but the cache index is still flushed.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.q.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = fmt.Errorf("drain: %w", ctx.Err())
	}
	if s.cache != nil {
		if err := s.cache.Close(); err != nil && waitErr == nil {
			waitErr = err
		}
	}
	return waitErr
}

// worker executes queued jobs until the queue closes and empties.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.dequeue()
		if !ok {
			return
		}
		j.res = j.exec(j.ctx)
		close(j.done)
	}
}

// submit runs one admitted job through the queue and waits for its
// result or the client's departure. A nil result means the client went
// away — there is nobody to respond to (the job's context is cancelled
// by the handler's deferred cancel, so the worker aborts promptly).
func (s *Server) submit(r *http.Request, ctx context.Context, exec func(context.Context) *result) *result {
	j := &job{tenant: tenant(r), ctx: ctx, exec: exec, done: make(chan struct{})}
	if err := s.q.enqueue(j); err != nil {
		switch err {
		case errTenantFull:
			s.nRejected.Add(1)
			return &result{status: http.StatusTooManyRequests, errDoc: &ErrorBody{
				Kind:          "queue_full",
				Message:       fmt.Sprintf("tenant %q queue is full (cap %d)", j.tenant, s.cfg.QueueCap),
				RetryAfterSec: retryAfterSec,
			}}
		case errShed:
			s.nShed.Add(1)
			return &result{status: http.StatusServiceUnavailable, errDoc: &ErrorBody{
				Kind:          "load_shed",
				Message:       fmt.Sprintf("server over the load-shed watermark (%d queued jobs)", s.cfg.ShedMark),
				RetryAfterSec: retryAfterSec,
			}}
		default: // errClosed
			s.nShed.Add(1)
			return &result{status: http.StatusServiceUnavailable, errDoc: &ErrorBody{
				Kind:    "draining",
				Message: "server is draining and admits no new jobs",
			}}
		}
	}
	select {
	case <-j.done:
		return j.res
	case <-r.Context().Done():
		return nil
	}
}

// retryAfterSec is the Retry-After hint on 429/503: long enough for a
// queued simulation to drain, short enough to keep sweeps moving.
const retryAfterSec = 5

// tenant identifies the requester for admission control.
func tenant(r *http.Request) string {
	if t := r.Header.Get(HeaderTenant); t != "" {
		return t
	}
	return "anonymous"
}

// deadline resolves the effective per-job timeout: the server default,
// shortened (never extended) by the request's timeout_ms.
func (s *Server) deadline(timeoutMillis int64) time.Duration {
	d := s.cfg.Timeout
	if timeoutMillis > 0 {
		if req := time.Duration(timeoutMillis) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

// classify maps a job failure onto the structured error taxonomy. The
// taxonomy mirrors the CLI one — contained panic, livelock watchdog,
// interruption — with HTTP statuses in place of exit codes.
func (s *Server) classify(err error) *result {
	var pe *sched.PanicError
	switch {
	case errors.As(err, &pe):
		s.nPanics.Add(1)
		return &result{status: http.StatusInternalServerError, errDoc: &ErrorBody{
			Kind:    "panic",
			Message: fmt.Sprintf("simulation panicked (contained): %v", pe.Value),
		}}
	case errors.Is(err, cmp.ErrLivelock):
		s.nLivelocks.Add(1)
		return &result{status: http.StatusUnprocessableEntity, errDoc: &ErrorBody{
			Kind:    "livelock",
			Message: err.Error(),
		}}
	case errors.Is(err, context.DeadlineExceeded):
		s.nTimeouts.Add(1)
		return &result{status: http.StatusGatewayTimeout, errDoc: &ErrorBody{
			Kind:    "timeout",
			Message: "job deadline exceeded",
		}}
	case errors.Is(err, context.Canceled):
		s.nTimeouts.Add(1)
		return &result{status: http.StatusGatewayTimeout, errDoc: &ErrorBody{
			Kind:    "canceled",
			Message: "job canceled",
		}}
	default:
		return &result{status: http.StatusInternalServerError, errDoc: &ErrorBody{
			Kind:    "internal",
			Message: err.Error(),
		}}
	}
}

// runCached executes fn under the result cache: serve a verified hit,
// otherwise compute (single-flighted with identical concurrent jobs)
// and persist — but only clean, non-chaos results. The cache envelope
// prefixes the payload with one exit-code byte so a cached entry is
// self-describing.
func (s *Server) runCached(ctx context.Context, key string, cacheable bool,
	fn func(context.Context) ([]byte, int, error)) *result {
	if s.cache == nil || !cacheable {
		payload, exit, err := fn(ctx)
		if err != nil {
			return s.classify(err)
		}
		s.nBypass.Add(1)
		return &result{status: http.StatusOK, exit: exit, cache: "bypass", body: payload}
	}
	var execErr error
	env, hit, err := s.cache.GetOrComputeIf(key, func() ([]byte, bool, error) {
		payload, exit, err := fn(ctx)
		if err != nil {
			execErr = err
			return nil, false, err
		}
		// Persist only clean results: a degraded document (FAIL cells)
		// must be recomputed next time, when the fault may be gone.
		return append([]byte{byte('0' + exit)}, payload...), exit == 0, nil
	})
	if err != nil {
		if execErr == nil {
			execErr = err // a single-flight peer's failure reached us
		}
		return s.classify(execErr)
	}
	if len(env) == 0 || env[0] < '0' || env[0] > '1' {
		// An envelope this code never wrote; treat as an internal error
		// rather than serving garbage.
		return s.classify(fmt.Errorf("malformed cache envelope for key %s", key))
	}
	state := "miss"
	if hit {
		s.nCacheHit.Add(1)
		state = "hit"
	} else {
		s.nCacheMiss.Add(1)
	}
	return &result{status: http.StatusOK, exit: int(env[0] - '0'), cache: state, body: env[1:]}
}

func (s *Server) handleBench(w http.ResponseWriter, r *http.Request) {
	s.nRequests.Add(1)
	var req BenchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, &result{status: http.StatusBadRequest, errDoc: &ErrorBody{Kind: "invalid", Message: err.Error()}})
		return
	}
	if !s.chaosAllowed(w, req.Inject) {
		return
	}
	key, err := req.cacheKey()
	if err != nil {
		s.writeError(w, s.classify(err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMillis))
	defer cancel()
	res := s.submit(r, ctx, func(ctx context.Context) *result {
		return s.runCached(ctx, key, req.cacheable(), func(ctx context.Context) ([]byte, int, error) {
			return s.exec.Bench(ctx, &req)
		})
	})
	s.respond(w, req.Format, res)
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	s.nRequests.Add(1)
	var req SimRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, &result{status: http.StatusBadRequest, errDoc: &ErrorBody{Kind: "invalid", Message: err.Error()}})
		return
	}
	if !s.chaosAllowed(w, req.Inject) {
		return
	}
	key, err := req.cacheKey(&s.digests)
	if errors.Is(err, errEmptyTrace) {
		s.writeError(w, &result{status: http.StatusBadRequest, errDoc: &ErrorBody{Kind: "invalid", Message: err.Error()}})
		return
	}
	if err != nil {
		s.writeError(w, s.classify(err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMillis))
	defer cancel()
	res := s.submit(r, ctx, func(ctx context.Context) *result {
		return s.runCached(ctx, key, req.cacheable(), func(ctx context.Context) ([]byte, int, error) {
			return s.exec.Sim(ctx, &req)
		})
	})
	s.respond(w, req.Format, res)
}

// decode parses a POST body into req; any failure is a 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, &result{status: http.StatusMethodNotAllowed, errDoc: &ErrorBody{
			Kind: "method", Message: "POST a JSON job description"}})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		s.writeError(w, &result{status: http.StatusBadRequest, errDoc: &ErrorBody{
			Kind: "invalid", Message: fmt.Sprintf("bad request body: %v", err)}})
		return false
	}
	return true
}

// chaosAllowed rejects inject requests with 403 unless the server was
// started with chaos drills enabled.
func (s *Server) chaosAllowed(w http.ResponseWriter, inject string) bool {
	if inject == "" || s.cfg.AllowChaos {
		return true
	}
	s.writeError(w, &result{status: http.StatusForbidden, errDoc: &ErrorBody{
		Kind:    "chaos_disabled",
		Message: "fault injection is disabled on this server (start fgstpd with -chaos)",
	}})
	return false
}

// respond renders a job result: the payload for 200 (streamed with the
// exit code and cache state in headers), the structured error document
// otherwise. A nil result means the client disconnected; nothing to do.
func (s *Server) respond(w http.ResponseWriter, format string, res *result) {
	if res == nil {
		return
	}
	if res.status != http.StatusOK {
		s.writeError(w, res)
		return
	}
	if res.exit == 0 {
		s.nOK.Add(1)
	} else {
		s.nDegraded.Add(1)
	}
	w.Header().Set("Content-Type", contentType(format))
	w.Header().Set(HeaderExit, strconv.Itoa(res.exit))
	w.Header().Set(HeaderCache, res.cache)
	w.WriteHeader(http.StatusOK)
	// Stream in bounded chunks so long documents reach slow clients
	// incrementally; the bytes are exactly the CLI's stdout either way.
	const chunk = 64 << 10
	flusher, _ := w.(http.Flusher)
	for off := 0; off < len(res.body); off += chunk {
		end := off + chunk
		if end > len(res.body) {
			end = len(res.body)
		}
		if _, err := w.Write(res.body[off:end]); err != nil {
			return // client went away mid-stream
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// writeError renders the structured error document.
func (s *Server) writeError(w http.ResponseWriter, res *result) {
	s.nErrors.Add(1)
	doc := struct {
		Schema string     `json:"schema"`
		Error  *ErrorBody `json:"error"`
	}{Schema: ErrorSchemaVersion, Error: res.errDoc}
	doc.Error.Status = res.status
	if doc.Error.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(doc.Error.RetryAfterSec))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	b, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
}

func contentType(format string) string {
	switch format {
	case "json":
		return "application/json"
	case "csv":
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and serving. Stays 200 while draining
	// (the process is healthy, just not accepting work — that's readyz).
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetricz renders the daemon counters, one "name value" line
// each in name order, read afresh from the atomic counters per request.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	total, tenants := s.q.depth()
	m := map[string]float64{
		"fgstpd_requests":            float64(s.nRequests.Load()),
		"fgstpd_ok":                  float64(s.nOK.Load()),
		"fgstpd_degraded":            float64(s.nDegraded.Load()),
		"fgstpd_errors":              float64(s.nErrors.Load()),
		"fgstpd_rejected":            float64(s.nRejected.Load()),
		"fgstpd_shed":                float64(s.nShed.Load()),
		"fgstpd_panics_contained":    float64(s.nPanics.Load()),
		"fgstpd_livelocks":           float64(s.nLivelocks.Load()),
		"fgstpd_timeouts":            float64(s.nTimeouts.Load()),
		"fgstpd_cache_hits":          float64(s.nCacheHit.Load()),
		"fgstpd_cache_misses":        float64(s.nCacheMiss.Load()),
		"fgstpd_cache_bypass":        float64(s.nBypass.Load()),
		"fgstpd_sweeps":              float64(s.nSweeps.Load()),
		"fgstpd_sweep_units":         float64(s.nSweepUnits.Load()),
		"fgstpd_sweep_unit_failures": float64(s.nSweepUnitFail.Load()),
		"fgstpd_cell_runs":           float64(s.cells.runs.Load()),
		"fgstpd_cell_hits":           float64(s.cells.hits.Load()),
		"fgstpd_cell_misses":         float64(s.cells.misses.Load()),
		"fgstpd_trace_digest_hits":   float64(s.digests.hits.Load()),
		"fgstpd_trace_digest_misses": float64(s.digests.misses.Load()),
		"fgstpd_queue_depth":         float64(total),
		"fgstpd_queue_tenants":       float64(tenants),
		"fgstpd_queue_depth_peak":    float64(s.q.peakDepth()),
	}
	if s.cache != nil {
		st := s.cache.Stats()
		m["fgstpd_store_hits"] = float64(st.Hits)
		m["fgstpd_store_misses"] = float64(st.Misses)
		m["fgstpd_store_corrupt"] = float64(st.Corrupt)
		m["fgstpd_store_shared"] = float64(st.Shared)
		m["fgstpd_store_puts"] = float64(st.Puts)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, k := range stats.Names(m) {
		fmt.Fprintf(w, "%s %g\n", k, m[k])
	}
}
