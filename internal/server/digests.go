package server

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/resultcache"
	"repro/internal/sched"
	"repro/internal/trace"
)

// traceDigestCap bounds the trace-digest memo. Clients choose insts, so
// the (workload, budget) key space is unbounded; 1024 pairs (every
// workload at 35 budgets) hold a few hundred KiB of keys and digests.
const traceDigestCap = 1024

// traceID names one trace. A trace is a pure function of the binary
// (its workload programs are code), the workload name and the budget.
type traceID struct {
	workload string
	insts    uint64
}

// traceDigests memoises each trace's content digest for the life of the
// server: resultcache.Key("trace", nil, <trace.Save bytes>), the value
// cell keys and /v1/sim document keys both frame. The memo is exact
// because a trace is a pure function of its traceID and the memo never
// leaves the process, so a hit stands for a capture, a gzip and a hash
// without doing any of them. Lookups are single-flight (sched.Cache);
// at most traceDigestCap pairs stay resident, oldest evicted first, and
// an evicted pair simply computes again. The zero value is ready to use.
type traceDigests struct {
	memo  sched.Cache[traceID, string]
	mu    sync.Mutex
	order []traceID // resident pairs, oldest first

	// Every lookup counts once: a miss is one Save and one hash, a hit
	// (sharing another caller's in-flight computation included) neither.
	hits, misses atomic.Int64
}

// digest returns id's trace digest. On a miss it takes the trace from
// capture, saves and hashes it; a capture error is returned to every
// caller of that computation and nothing is memoised.
func (d *traceDigests) digest(id traceID, capture func() (*trace.Trace, error)) (string, error) {
	computed := false
	sum, err := d.memo.Do(id, func() (string, error) {
		computed = true
		tr, err := capture()
		if err != nil {
			return "", err
		}
		var tb bytes.Buffer
		if err := tr.Save(&tb); err != nil {
			return "", err
		}
		return resultcache.Key("trace", nil, tb.Bytes()), nil
	})
	if !computed {
		d.hits.Add(1)
		return sum, err
	}
	d.misses.Add(1)
	if err == nil {
		d.admit(id)
	}
	return sum, err
}

// admit records a freshly computed pair and evicts the oldest resident
// pairs beyond the cap. Only the computing caller admits, so each
// resident pair appears in order once.
func (d *traceDigests) admit(id traceID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.order = append(d.order, id)
	for len(d.order) > traceDigestCap {
		d.memo.Forget(d.order[0])
		d.order = d.order[1:]
	}
}
