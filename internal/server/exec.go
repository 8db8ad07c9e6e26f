package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// instsLimit bounds the per-simulation instruction budget a request may
// ask for: the daemon is multi-tenant, and one request must not be able
// to occupy a worker for an unbounded time (the per-job deadline is the
// backstop, this keeps honest requests honest).
const instsLimit = 10_000_000

// BenchRequest is the /v1/bench job: one experiment (or "all") of the
// paper evaluation, rendered exactly like `fgstpbench -format ...`.
type BenchRequest struct {
	// Experiment is an id (E1..E10, extensions E11/E12), "all" (default,
	// the paper evaluation E1..E10) or "all+ext" (everything, extensions
	// included).
	Experiment string `json:"experiment,omitempty"`
	// Insts is the per-simulation instruction budget (default 100000).
	Insts uint64 `json:"insts,omitempty"`
	// Format selects the rendering: text, json (default) or csv.
	Format string `json:"format,omitempty"`
	// Jobs is the simulation fan-out inside this request (<= 0 picks
	// GOMAXPROCS). Output is byte-identical for any value, so Jobs is
	// deliberately not part of the cache key.
	Jobs int `json:"jobs,omitempty"`
	// Inject poisons one workload: its Fg-STP cells run with a stalled
	// inter-core channel and render FAIL(livelock). Chaos drills must be
	// enabled server-side (403 otherwise) and are never cached.
	Inject string `json:"inject,omitempty"`
	// TimeoutMillis overrides the per-job deadline, clamped to the
	// server's maximum (0 = server default).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`

	ids []string // resolved by validate
}

// validate normalises defaults and resolves the experiment list; any
// error is a client error (HTTP 400).
func (q *BenchRequest) validate() error {
	if q.Experiment == "" {
		q.Experiment = "all"
	}
	switch {
	case q.Experiment == "all":
		q.ids = experiments.IDs()
	case q.Experiment == "all+ext":
		q.ids = experiments.AllIDs()
	case experiments.ValidID(q.Experiment):
		q.ids = []string{q.Experiment}
	default:
		return fmt.Errorf("unknown experiment %q (want E1..E10, E11/E12, \"all\" or \"all+ext\")", q.Experiment)
	}
	if q.Insts == 0 {
		q.Insts = 100_000
	}
	if q.Insts > instsLimit {
		return fmt.Errorf("insts %d exceeds the per-request limit %d", q.Insts, instsLimit)
	}
	if q.Format == "" {
		q.Format = "json"
	}
	if !validFormat(q.Format) {
		return fmt.Errorf("unknown format %q (want text, json or csv)", q.Format)
	}
	if q.Inject != "" {
		if _, ok := workloads.ByName(q.Inject); !ok {
			return fmt.Errorf("unknown workload %q for inject", q.Inject)
		}
	}
	if q.TimeoutMillis < 0 {
		return fmt.Errorf("negative timeout_ms %d", q.TimeoutMillis)
	}
	return nil
}

// cacheable reports whether this request's result may be served from
// and written to the result cache. Chaos drills are never cached: a
// degraded result must not be replayed to a later clean request.
func (q *BenchRequest) cacheable() bool { return q.Inject == "" }

// cacheKey content-addresses the request. The bench corpus is fully
// determined by the engine version (presets and trace generators are
// code), so the key hashes the canonical preset configs and the
// workload roster in place of per-request config and trace bytes.
func (q *BenchRequest) cacheKey() (string, error) {
	mediumPreset := config.Medium()
	medium, err := mediumPreset.ToJSON()
	if err != nil {
		return "", err
	}
	smallPreset := config.Small()
	small, err := smallPreset.ToJSON()
	if err != nil {
		return "", err
	}
	presets := append(append([]byte{}, medium...), small...)
	corpus := []byte(strings.Join(workloads.Names(), ","))
	return resultcache.Key(cmp.EngineVersion, presets, corpus,
		"bench", q.Experiment, strconv.FormatUint(q.Insts, 10), q.Format, q.Inject), nil
}

// SimRequest is the /v1/sim job: one workload on one machine in one or
// all execution modes, rendered exactly like `fgstpsim -format ...`.
type SimRequest struct {
	// Workload names the trace generator (default mcf).
	Workload string `json:"workload,omitempty"`
	// Machine is a preset name, small or medium (default medium).
	Machine string `json:"machine,omitempty"`
	// Config is an inline JSON machine configuration overriding Machine.
	Config json.RawMessage `json:"config,omitempty"`
	// Mode is single, corefusion, fgstp or all (default all).
	Mode string `json:"mode,omitempty"`
	// Insts is the instruction budget (default 100000).
	Insts uint64 `json:"insts,omitempty"`
	// Format selects the rendering: text, json (default) or csv.
	Format string `json:"format,omitempty"`
	// Jobs bounds the report's worker pool, which runs every full run
	// and sampled estimate; not part of the cache key (output is
	// byte-identical for any value).
	Jobs int `json:"jobs,omitempty"`
	// Inject arms a fault on the Fg-STP mode: "livelock" stalls the
	// inter-core channel, "panic" panics inside the engine (contained by
	// the scheduler). Requires chaos enabled server-side; never cached.
	Inject string `json:"inject,omitempty"`
	// SimpointInterval, when positive, adds checkpointed SimPoint
	// sampled estimates (weighted IPC with a 95% confidence interval,
	// one per mode) to the response, exactly like `fgstpsim -simpoint`.
	// Sampling parameters are part of the cache key, so sampled and
	// plain runs of the same request never alias.
	SimpointInterval int `json:"simpoint_interval,omitempty"`
	// TimeoutMillis overrides the per-job deadline, clamped to the
	// server's maximum (0 = server default).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`

	m     config.Machine // resolved by validate
	tr    *trace.Trace
	modes []cmp.Mode
}

// simpointIntervalFloor is the smallest interval a request may sample
// with: clustering cost grows with the interval count, and a
// multi-tenant daemon must not let one request buy an unbounded k-means
// on a maximum-length trace with a one-instruction interval.
const simpointIntervalFloor = 1000

// validate normalises defaults, resolves the machine and captures the
// workload trace (deterministic, so safe to do before admission — the
// trace bytes are the cache-key component). Any error is a client
// error (HTTP 400).
func (q *SimRequest) validate() error {
	if q.Workload == "" {
		q.Workload = "mcf"
	}
	w, ok := workloads.ByName(q.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", q.Workload)
	}
	if len(q.Config) > 0 {
		m, err := config.FromJSON(q.Config)
		if err != nil {
			return fmt.Errorf("inline config: %w", err)
		}
		q.m = m
	} else {
		if q.Machine == "" {
			q.Machine = "medium"
		}
		m, err := config.ByName(q.Machine)
		if err != nil {
			return err
		}
		q.m = m
	}
	if err := q.m.Validate(); err != nil {
		return err
	}
	if q.Mode == "" {
		q.Mode = "all"
	}
	if q.Mode == "all" {
		q.modes = cmp.Modes()
	} else {
		md, err := cmp.ParseMode(q.Mode)
		if err != nil {
			return err
		}
		q.modes = []cmp.Mode{md}
	}
	if q.Insts == 0 {
		q.Insts = 100_000
	}
	if q.Insts > instsLimit {
		return fmt.Errorf("insts %d exceeds the per-request limit %d", q.Insts, instsLimit)
	}
	if q.Format == "" {
		q.Format = "json"
	}
	if !validFormat(q.Format) {
		return fmt.Errorf("unknown format %q (want text, json or csv)", q.Format)
	}
	switch q.Inject {
	case "", "livelock", "panic":
	default:
		return fmt.Errorf("unknown fault %q for inject (want \"livelock\" or \"panic\")", q.Inject)
	}
	if q.SimpointInterval != 0 {
		if q.SimpointInterval < simpointIntervalFloor {
			return fmt.Errorf("simpoint_interval %d below the minimum %d", q.SimpointInterval, simpointIntervalFloor)
		}
		if uint64(q.SimpointInterval) > q.Insts {
			return fmt.Errorf("simpoint_interval %d exceeds insts %d", q.SimpointInterval, q.Insts)
		}
	}
	if q.TimeoutMillis < 0 {
		return fmt.Errorf("negative timeout_ms %d", q.TimeoutMillis)
	}
	q.tr = w.Trace(q.Insts)
	if q.tr.Len() == 0 {
		return fmt.Errorf("workload %q yielded an empty trace", q.Workload)
	}
	return nil
}

func (q *SimRequest) cacheable() bool { return q.Inject == "" }

// cacheKey content-addresses the request over the exact inputs of the
// simulation: engine version, canonical machine config and the captured
// trace bytes, plus the mode/format/sampling parameters. The sampling
// interval is a key component: a sampled response carries estimates a
// plain run's does not, so the two must never share a cache entry.
func (q *SimRequest) cacheKey() (string, error) {
	cfg, err := q.m.ToJSON()
	if err != nil {
		return "", err
	}
	var tb bytes.Buffer
	if err := q.tr.Save(&tb); err != nil {
		return "", err
	}
	return resultcache.Key(cmp.EngineVersion, cfg, tb.Bytes(),
		"sim", q.Mode, strconv.FormatUint(q.Insts, 10), q.Format, q.Inject,
		strconv.Itoa(q.SimpointInterval)), nil
}

func validFormat(f string) bool {
	for _, v := range experiments.Formats() {
		if v == f {
			return true
		}
	}
	return false
}

// Executor runs validated jobs and returns the rendered payload plus
// the CLI exit code it corresponds to (0 = clean, 1 = completed with
// FAIL cells). A non-nil error means the request produced no usable
// document — total failure, classified into an HTTP status by the
// server. The engine-backed implementation is the default; tests
// substitute stubs to drive the backpressure and failure paths without
// simulating.
type Executor interface {
	Bench(ctx context.Context, req *BenchRequest) ([]byte, int, error)
	Sim(ctx context.Context, req *SimRequest) ([]byte, int, error)
}

// engineExecutor runs jobs on the real simulation engine through the
// exact rendering paths of the CLIs — experiments.WriteFormat for
// bench, experiments.WriteSimFormatEst for sim — which is what makes
// server responses byte-identical to fgstpbench/fgstpsim stdout. srv
// (nil in tests that substitute executors elsewhere) supplies the cell
// cache.
type engineExecutor struct{ srv *Server }

func (e engineExecutor) Bench(ctx context.Context, req *BenchRequest) ([]byte, int, error) {
	// A fresh session per request: sessions are single-goroutine (their
	// trace and cell caches are shared within one evaluation, which is
	// exactly one request here), and per-request state is what keeps one
	// tenant's poisoned run out of another's cells.
	session := experiments.NewSession(req.Insts, req.Jobs)
	if req.Inject != "" {
		session.Poison(req.Inject)
	}
	// Compose the document from memoised cells: with the store open and
	// no chaos drill armed, every clean simulation cell of this request
	// is served from (or persisted to) the cell cache, so overlapping
	// experiments and repeated sweeps share work below the document
	// level.
	if e.srv != nil && e.srv.cache != nil && req.Inject == "" {
		session.SetCellRunner(e.srv.cellRunner(cellStatsFrom(ctx)))
	}
	ev, err := session.Evaluate(ctx, req.ids)
	if err != nil {
		return nil, 0, err
	}
	failed := 0
	for _, res := range ev.Results {
		failed += len(res.Failures)
	}
	var buf bytes.Buffer
	if err := experiments.WriteFormat(&buf, req.Format, req.Insts, ev.Results); err != nil {
		return nil, 0, err
	}
	exit := 0
	if failed > 0 {
		exit = 1
	}
	return buf.Bytes(), exit, nil
}

func (e engineExecutor) Sim(ctx context.Context, req *SimRequest) ([]byte, int, error) {
	rep, err := experiments.RunSim(ctx, req.m, req.tr, req.modes, req.Inject,
		experiments.SimpointParams{Interval: req.SimpointInterval, Warmup: -1}, req.Jobs)
	// A deadline or cancellation during the report (504) leaves it
	// incomplete or late: nothing is rendered, so nothing is cached.
	if err != nil {
		return nil, 0, err
	}
	failed := 0
	var firstErr error
	for _, e := range rep.Errs {
		if e != nil {
			failed++
			if firstErr == nil {
				firstErr = e
			}
		}
	}
	// Every requested mode failed: there is no document worth rendering,
	// surface the failure itself (classified by the server into 422 for
	// livelock, 500 for a contained panic).
	if failed == len(req.modes) {
		return nil, 0, firstErr
	}
	var buf bytes.Buffer
	if err := experiments.WriteSimFormatEst(&buf, req.Format, req.m.Name, req.tr, req.modes, rep.Runs, rep.Errs, rep.Ests); err != nil {
		return nil, 0, err
	}
	exit := 0
	if failed > 0 {
		exit = 1
	}
	return buf.Bytes(), exit, nil
}
