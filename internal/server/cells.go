package server

import (
	"context"
	"encoding/json"
	"sync/atomic"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The cell cache memoises individual simulation cells — one cmp run of
// one mode on one workload at one instruction budget — rather than only
// whole rendered documents. The experiment harness exposes exactly that
// granularity (experiments.CellFunc); the daemon installs a runner that
// content-addresses each cell under (engine version, canonical cell
// config, trace hash, mode, workload, insts) and serves repeats from
// internal/resultcache. The whole-document cache in runCached stays on
// top: a document hit skips the session entirely, a document miss
// recomposes the document from cell lookups, so overlapping experiments
// (E2 and E4 share every medium single-core and full-fabric Fg-STP
// cell) and repeated sweeps share simulation work automatically.

// cellStats counts one request's cell traffic: runs is the number of
// cells the session asked for, hits the ones served from the store,
// misses the ones actually simulated. hits+misses may fall short of
// runs only when a cell result was unserialisable and served directly.
type cellStats struct {
	runs   atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

// CellStatsSnapshot is the rendered form of cellStats in sweep stream
// records.
type CellStatsSnapshot struct {
	Runs   int64 `json:"runs"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (st *cellStats) snapshot() CellStatsSnapshot {
	if st == nil {
		return CellStatsSnapshot{}
	}
	return CellStatsSnapshot{Runs: st.runs.Load(), Hits: st.hits.Load(), Misses: st.misses.Load()}
}

// cellStatsCtxKey carries a *cellStats through the job context so the
// engine executor can attribute cell traffic to the request that caused
// it (sweep unit records surface the per-unit counts).
type cellStatsCtxKey struct{}

func withCellStats(ctx context.Context, st *cellStats) context.Context {
	return context.WithValue(ctx, cellStatsCtxKey{}, st)
}

func cellStatsFrom(ctx context.Context) *cellStats {
	st, _ := ctx.Value(cellStatsCtxKey{}).(*cellStats)
	return st
}

// cellKey content-addresses one simulation cell: engine version,
// canonical cell config (experiments.CellConfig, the identity the
// session memo uses too) and the trace digest pin the simulation inputs
// exactly (the digest subsumes workload identity and instruction
// budget — same bytes, same result); the mode and workload name ride
// along for debuggability. traceSum is the trace's content digest
// (traceDigests), computed once per (workload, insts) per process, not
// per cell or per request.
func cellKey(m config.Machine, mode cmp.Mode, workload, traceSum string) (string, error) {
	cfgJSON, err := experiments.CellConfig(m, mode)
	if err != nil {
		return "", err
	}
	return resultcache.Key(cmp.EngineVersion, cfgJSON, []byte(traceSum),
		"cell", string(mode), workload), nil
}

// cellRunner builds the CellFunc the engine executor installs on a
// session at budget insts: every clean cell is served from the result
// cache when possible, computed and persisted otherwise. The session
// has already captured each trace it hands the runner (every trace is
// its workload at insts), so the server's digest memo is keyed by that
// pair and saves and hashes a trace only the first time the process
// sees it. st (nil-safe) receives the per-request traffic counts; the
// server-global cell counters feed /metricz either way.
//
// Correctness leans on the repository's determinism contract: a cell
// result is a pure function of (engine version, canonical config,
// trace bytes), which is exactly the key, so a cached stats.Run
// round-tripped through JSON is byte-equivalent to a fresh simulation
// (stats.Run marshals losslessly — uint64 counts and shortest-round-
// trip float64 counters, name-sorted).
func (s *Server) cellRunner(st *cellStats, insts uint64) experiments.CellFunc {
	return func(m config.Machine, mode cmp.Mode, w workloads.Workload, tr *trace.Trace) (stats.Run, error) {
		if st != nil {
			st.runs.Add(1)
		}
		s.nCellRuns.Add(1)
		sum, err := s.digests.digest(traceID{w.Name, insts}, func() (*trace.Trace, error) { return tr, nil })
		if err != nil {
			return cmp.Run(m, mode, tr) // unkeyable, run uncached
		}
		key, err := cellKey(m, mode, w.Name, sum)
		if err != nil {
			return cmp.Run(m, mode, tr)
		}
		// computed captures the fresh run when its JSON encoding cannot
		// be persisted (NaN/Inf counters): the simulation still succeeded
		// and its result must be served, just not memoised.
		var computed *stats.Run
		env, hit, err := s.cache.GetOrComputeIf(key, func() ([]byte, bool, error) {
			run, err := cmp.Run(m, mode, tr)
			if err != nil {
				return nil, false, err
			}
			payload, jerr := json.Marshal(&run)
			if jerr != nil {
				computed = &run
				return nil, false, nil
			}
			return payload, true, nil
		})
		if err != nil {
			return stats.Run{}, err
		}
		if computed != nil {
			if st != nil {
				st.misses.Add(1)
			}
			s.nCellMisses.Add(1)
			return *computed, nil
		}
		if env == nil {
			// A single-flight peer computed an unserialisable run; its
			// captured copy is not ours to read, so run the cell directly.
			if st != nil {
				st.misses.Add(1)
			}
			s.nCellMisses.Add(1)
			return cmp.Run(m, mode, tr)
		}
		var run stats.Run
		if err := json.Unmarshal(env, &run); err != nil {
			// The store verifies content hashes, so this is an entry from
			// a different encoding era; recompute rather than fail.
			if st != nil {
				st.misses.Add(1)
			}
			s.nCellMisses.Add(1)
			return cmp.Run(m, mode, tr)
		}
		if st != nil {
			if hit {
				st.hits.Add(1)
			} else {
				st.misses.Add(1)
			}
		}
		if hit {
			s.nCellHits.Add(1)
		} else {
			s.nCellMisses.Add(1)
		}
		return run, nil
	}
}
