package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/experiments"
)

// SweepSchemaVersion identifies the NDJSON stream a /v1/sweep response
// carries: one header record, one record per completed unit (in
// completion order — partial results land as they finish), one terminal
// summary record: SweepHeader, SweepUnitRecord and SweepSummary.
const SweepSchemaVersion = "fgstpd.sweep/1"

// maxSweepUnits bounds the experiments × insts matrix one sweep may
// carry: the daemon is multi-tenant and one request must not be able to
// occupy the queue with an unbounded unit fan-out.
const maxSweepUnits = 256

// SweepRequest is the /v1/sweep job: an experiments × insts matrix,
// decomposed into units (one experiment at one budget — exactly a
// /v1/bench job), fanned out through the worker pool under this
// tenant's admission queue, each composed from individually memoised
// simulation cells, with completed documents streamed back as they
// land.
type SweepRequest struct {
	// Experiments lists ids (E1..E10, extensions E11/E12), "all" (the
	// paper evaluation E1..E10) and/or "all+ext" (everything, extensions
	// included). Empty means ["all"]. Unknown ids are a 400. Duplicates
	// (including via the groups) are deduplicated, first occurrence wins.
	Experiments []string `json:"experiments,omitempty"`
	// Insts lists per-simulation instruction budgets (default [100000]).
	Insts []uint64 `json:"insts,omitempty"`
	// Format selects the per-unit document rendering: text, json
	// (default) or csv — each unit document is byte-identical to
	// `fgstpbench -experiment <id> -insts <n> -format <format>` stdout.
	Format string `json:"format,omitempty"`
	// Jobs is the simulation fan-out inside each unit (<= 0 picks
	// GOMAXPROCS); unit documents are byte-identical for any value.
	Jobs int `json:"jobs,omitempty"`
	// TimeoutMillis overrides the per-unit deadline, clamped to the
	// server's maximum (0 = server default). Each unit gets its own
	// deadline, queue wait included.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`

	units []sweepUnit // resolved by validate
}

// sweepUnit is one cell of the request matrix: one experiment at one
// instruction budget.
type sweepUnit struct {
	Experiment string `json:"experiment"`
	Insts      uint64 `json:"insts"`
}

// validate normalises defaults and resolves the unit matrix
// (experiment-major: every budget of E2 before any of E4); any error is
// a client error (HTTP 400).
func (q *SweepRequest) validate() error {
	if len(q.Experiments) == 0 {
		q.Experiments = []string{"all"}
	}
	var ids []string
	seen := make(map[string]bool)
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, e := range q.Experiments {
		switch {
		case e == "all":
			for _, id := range experiments.IDs() {
				add(id)
			}
		case e == "all+ext":
			for _, id := range experiments.AllIDs() {
				add(id)
			}
		case experiments.ValidID(e):
			add(e)
		default:
			return fmt.Errorf("unknown experiment %q (want E1..E10, E11/E12, \"all\" or \"all+ext\")", e)
		}
	}
	q.Experiments = ids
	if len(q.Insts) == 0 {
		q.Insts = []uint64{100_000}
	}
	var insts []uint64
	seenInsts := make(map[uint64]bool)
	for _, n := range q.Insts {
		if n == 0 {
			return fmt.Errorf("insts 0 is invalid (omit the field for the default budget)")
		}
		if n > instsLimit {
			return fmt.Errorf("insts %d exceeds the per-request limit %d", n, instsLimit)
		}
		if !seenInsts[n] {
			seenInsts[n] = true
			insts = append(insts, n)
		}
	}
	q.Insts = insts
	if q.Format == "" {
		q.Format = "json"
	}
	if !validFormat(q.Format) {
		return fmt.Errorf("unknown format %q (want text, json or csv)", q.Format)
	}
	if q.TimeoutMillis < 0 {
		return fmt.Errorf("negative timeout_ms %d", q.TimeoutMillis)
	}
	if len(ids)*len(insts) > maxSweepUnits {
		return fmt.Errorf("sweep matrix %d experiments × %d insts = %d units exceeds the limit %d",
			len(ids), len(insts), len(ids)*len(insts), maxSweepUnits)
	}
	for _, id := range ids {
		for _, n := range insts {
			q.units = append(q.units, sweepUnit{Experiment: id, Insts: n})
		}
	}
	return nil
}

// SweepHeader is the first stream record: the resolved matrix, so a
// client knows how many unit records to expect.
type SweepHeader struct {
	Schema      string   `json:"schema"`
	Units       int      `json:"units"`
	Experiments []string `json:"experiments"`
	Insts       []uint64 `json:"insts"`
	Format      string   `json:"format"`
}

// SweepUnitRecord reports one completed unit. Status/Exit/Cache mirror
// the /v1/bench response (HTTP status, CLI exit code, hit|miss|bypass);
// Document carries the rendered bytes of a 200 verbatim (JSON string
// escaping round-trips them exactly); Error carries the structured
// error of a non-200. Cells is this unit's cell-cache traffic — zero
// runs on a document-cache hit (the session never ran).
type SweepUnitRecord struct {
	Unit       int               `json:"unit"`
	Experiment string            `json:"experiment"`
	Insts      uint64            `json:"insts"`
	Status     int               `json:"status"`
	Exit       int               `json:"exit"`
	Cache      string            `json:"cache,omitempty"`
	Cells      CellStatsSnapshot `json:"cells"`
	Document   string            `json:"document,omitempty"`
	Error      *ErrorBody        `json:"error,omitempty"`
}

// SweepSummary is the terminal record: unit counts by outcome,
// aggregate cell traffic, and the sweep's CLI-taxonomy exit code (0 =
// every unit clean, 1 otherwise).
type SweepSummary struct {
	Done     bool              `json:"done"`
	Units    int               `json:"units"`
	OK       int               `json:"ok"`
	Degraded int               `json:"degraded"`
	Failed   int               `json:"failed"`
	Cells    CellStatsSnapshot `json:"cells"`
	Exit     int               `json:"exit"`
}

// sweepAdmitBackoff paces enqueue retries when the tenant's queue is
// full of jobs from outside this sweep (nothing of ours in flight to
// wait on).
const sweepAdmitBackoff = 20 * time.Millisecond

// handleSweep decomposes the request matrix into units, admits them
// through the same per-tenant queue as /v1/bench (never more than the
// tenant's queue capacity in flight, so a sweep cannot starve sibling
// tenants — the round-robin dequeue interleaves), and streams each
// unit's document the moment it lands. The response is always HTTP 200
// once streaming starts; per-unit failures travel inside unit records
// and the terminal summary.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.nRequests.Add(1)
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, &result{status: http.StatusBadRequest, errDoc: &ErrorBody{Kind: "invalid", Message: err.Error()}})
		return
	}
	s.nSweeps.Add(1)
	s.nSweepUnits.Add(int64(len(req.units)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	write := func(rec any) bool {
		if err := enc.Encode(rec); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !write(SweepHeader{Schema: SweepSchemaVersion, Units: len(req.units),
		Experiments: req.Experiments, Insts: req.Insts, Format: req.Format}) {
		return
	}

	type unitDone struct {
		idx   int
		res   *result
		cells CellStatsSnapshot
	}
	// Buffered to the full matrix so collector goroutines never block:
	// if the client disconnects mid-stream the handler returns and the
	// collectors drain into the buffer and exit.
	results := make(chan unitDone, len(req.units))
	var summary SweepSummary
	summary.Units = len(req.units)
	emit := func(d unitDone) bool {
		rec := SweepUnitRecord{Unit: d.idx,
			Experiment: req.units[d.idx].Experiment, Insts: req.units[d.idx].Insts,
			Status: d.res.status, Exit: d.res.exit, Cache: d.res.cache, Cells: d.cells}
		switch {
		case d.res.status == http.StatusOK && d.res.exit == 0:
			summary.OK++
			s.nOK.Add(1)
		case d.res.status == http.StatusOK:
			summary.Degraded++
			s.nDegraded.Add(1)
		default:
			summary.Failed++
			s.nErrors.Add(1)
			s.nSweepUnitFail.Add(1)
		}
		if d.res.status == http.StatusOK {
			rec.Document = string(d.res.body)
		} else {
			d.res.errDoc.Status = d.res.status
			rec.Error = d.res.errDoc
		}
		summary.Cells.Runs += d.cells.Runs
		summary.Cells.Hits += d.cells.Hits
		summary.Cells.Misses += d.cells.Misses
		return write(rec)
	}

	inflight := 0
	clientGone := false
	// drainOne waits for the next completion and streams its record.
	drainOne := func() {
		select {
		case d := <-results:
			inflight--
			if !emit(d) {
				clientGone = true
			}
		case <-r.Context().Done():
			clientGone = true
		}
	}

launch:
	for i := range req.units {
		if clientGone {
			break
		}
		u := req.units[i]
		st := &cellStats{}
		uctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMillis))
		j := &job{tenant: tenant(r), ctx: uctx, done: make(chan struct{})}
		j.exec = func(ctx context.Context) *result { return s.runUnit(ctx, u, &req, st) }
		for {
			err := s.q.enqueue(j)
			if err == nil {
				inflight++
				go func(i int, j *job, cancel context.CancelFunc, st *cellStats) {
					<-j.done
					cancel()
					results <- unitDone{idx: i, res: j.res, cells: st.snapshot()}
				}(i, j, cancel, st)
				break
			}
			if err == errClosed {
				// Draining: nothing else of this sweep will be admitted.
				// Record this and every remaining unit as shed, then stop
				// launching (already-admitted units still drain below).
				cancel()
				for k := i; k < len(req.units); k++ {
					if !emit(unitDone{idx: k, res: &result{
						status: http.StatusServiceUnavailable,
						errDoc: &ErrorBody{Kind: "draining", Message: "server is draining and admits no new jobs"},
					}}) {
						clientGone = true
						break
					}
				}
				break launch
			}
			// Tenant queue full or shed watermark. With our own units in
			// flight, a completion frees a slot — wait for one. With
			// nothing in flight the pressure is from sibling requests;
			// back off briefly and retry, giving up when the unit's own
			// deadline (which includes queue wait, as on /v1/bench)
			// expires.
			if inflight > 0 {
				drainOne()
			} else {
				select {
				case <-uctx.Done():
				case <-time.After(sweepAdmitBackoff):
				}
			}
			if uctx.Err() != nil || clientGone {
				cancel()
				if clientGone {
					break launch
				}
				s.nTimeouts.Add(1)
				if !emit(unitDone{idx: i, res: &result{
					status: http.StatusGatewayTimeout,
					errDoc: &ErrorBody{Kind: "timeout", Message: "unit deadline exceeded while waiting for admission"},
				}}) {
					clientGone = true
					break launch
				}
				continue launch
			}
		}
	}
	for inflight > 0 && !clientGone {
		drainOne()
	}
	if clientGone {
		return
	}
	if summary.Degraded > 0 || summary.Failed > 0 {
		summary.Exit = 1
	}
	summary.Done = true
	write(summary)
}

// runUnit executes one sweep unit exactly as /v1/bench would execute
// the same single-experiment request — same validation, same document
// cache key (a sweep unit and a bench request share cache entries in
// both directions), same engine path composed from memoised cells. st
// receives the unit's cell-cache traffic counts.
func (s *Server) runUnit(ctx context.Context, u sweepUnit, req *SweepRequest, st *cellStats) *result {
	br := &BenchRequest{Experiment: u.Experiment, Insts: u.Insts, Format: req.Format, Jobs: req.Jobs, cells: st}
	if err := br.validate(); err != nil {
		return &result{status: http.StatusBadRequest, errDoc: &ErrorBody{Kind: "invalid", Message: err.Error()}}
	}
	key, err := br.cacheKey()
	if err != nil {
		return s.classify(err)
	}
	return s.runCached(ctx, key, br.cacheable(), func(ctx context.Context) ([]byte, int, error) {
		return s.exec.Bench(ctx, br)
	})
}
