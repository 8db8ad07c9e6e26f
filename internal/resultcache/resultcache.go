// Package resultcache is a content-addressed, persistent result store
// for simulation output. The engine is byte-identically deterministic
// (every export is a pure function of machine config, trace bytes and
// engine version), so a cached payload is correct by construction: a
// daemon fleet can share one cache directory and serve repeat sweeps
// without re-simulating.
//
// Robustness properties, each load-bearing for a long-running server:
//
//   - Keys are SHA-256 over length-framed components (engine version,
//     canonical config, trace bytes or their digest, job parameters),
//     so no two distinct jobs can collide by concatenation ambiguity.
//   - Writes are atomic: payloads land in a temp file and rename into
//     place, so a crashed or SIGKILLed writer never leaves a partial
//     entry visible.
//   - Reads verify an embedded SHA-256 of the payload. A corrupted or
//     truncated entry (disk fault, torn write by a foreign tool) is
//     evicted and reported as a miss — the caller recomputes, never
//     serves bad bytes.
//   - GetOrComputeIf single-flights concurrent identical jobs: N
//     simultaneous requests for the same key run the computation once
//     and share the result, and the computation decides whether its
//     result is persisted.
//
// The generalisation promised by the in-memory single-flight
// sched.Cache: same collapse-duplicates contract, plus persistence,
// integrity checking and cross-process sharing.
package resultcache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Key derives the content address of a job result: SHA-256 in hex over
// the engine version, the canonicalized machine configuration, the
// workload trace's identity (fgstpd passes the digest
// Key("trace", nil, <trace file bytes>)) and the job parameters (kind,
// mode, format, …). Every component is length-framed before hashing,
// so moving bytes between components always changes the key. Identical
// inputs yield identical keys on every platform and process; any
// single-component delta yields a different key.
func Key(engineVersion string, configJSON, traceBytes []byte, params ...string) string {
	h := sha256.New()
	frame := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	frame([]byte(engineVersion))
	frame(configJSON)
	frame(traceBytes)
	for _, p := range params {
		frame([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entryMagic heads every cache entry; bump on any layout change so old
// entries read as corrupt (and so recompute) instead of misparsing.
const entryMagic = "fgstpcache/1"

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts Get/GetOrComputeIf calls served from disk.
	Hits int64
	// Misses counts absent keys (including corrupt evictions, which
	// also count under Corrupt).
	Misses int64
	// Corrupt counts entries that failed verification and were evicted.
	Corrupt int64
	// Shared counts GetOrComputeIf callers that piggybacked on another
	// caller's in-flight computation instead of running their own.
	Shared int64
	// Puts counts successful writes.
	Puts int64
}

// Store is an on-disk content-addressed cache. Safe for concurrent use
// by any number of goroutines; multiple processes may share a
// directory (atomic renames keep entries consistent; the single-flight
// collapse is per-process).
type Store struct {
	dir string

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
	shared  atomic.Int64
	puts    atomic.Int64

	mu      sync.Mutex
	flights map[string]*flight
}

type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Store{dir: dir, flights: make(map[string]*flight)}, nil
}

// path shards entries by the first byte of the key to keep directory
// fan-out bounded on big caches.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key)
}

// Get returns the payload stored under key, or ok=false on a miss. A
// corrupted entry — bad magic, wrong length, digest mismatch — is
// evicted and reported as a miss, so callers always fall back to
// recompute instead of receiving damaged bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	data, err := readEntry(s.path(key))
	switch {
	case err == nil:
		s.hits.Add(1)
		return data, true
	case os.IsNotExist(err):
		s.misses.Add(1)
		return nil, false
	default:
		// Anything else is a damaged or unreadable entry: evict it so
		// the next Put rewrites a clean one.
		s.corrupt.Add(1)
		s.misses.Add(1)
		os.Remove(s.path(key))
		return nil, false
	}
}

// Put stores payload under key atomically: the bytes (with integrity
// header) land in a temp file in the same directory and rename into
// place, so concurrent readers see either the old entry or the
// complete new one, never a torn write.
func (s *Store) Put(key string, payload []byte) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(w, "%s %s %d\n", entryMagic, hex.EncodeToString(sum[:]), len(payload)); err == nil {
		_, err = w.Write(payload)
		if err == nil {
			err = w.Flush()
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resultcache: write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// GetOrComputeIf returns the payload for key, computing it with fn on
// a miss. Concurrent calls for the same key run fn once: the first
// caller computes while the rest wait and share the result (hit=false
// for all of them — the bytes were computed this call, not served from
// disk). fn also reports whether its result should be written to disk;
// results computed with persist=false still reach every single-flight
// waiter of this call, but the next call recomputes. The daemon uses
// this to serve — but never memoise — degraded results. A failed
// computation is not cached and is delivered to every waiting caller;
// the next call retries. Store failures after a successful fn never
// fail the call: the result is returned uncached (the cache is an
// accelerator, not a dependency).
func (s *Store) GetOrComputeIf(key string, fn func() ([]byte, bool, error)) (payload []byte, hit bool, err error) {
	if data, ok := s.Get(key); ok {
		return data, true, nil
	}
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.shared.Add(1)
		<-f.done
		return f.data, false, f.err
	}
	// A leader may have stored the entry and retired its flight between
	// the Get above and this lookup (it Puts before it deletes the
	// flight); read again before computing, or the key computes twice.
	if data, err := readEntry(s.path(key)); err == nil {
		s.mu.Unlock()
		s.hits.Add(1)
		return data, true, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	var persist bool
	f.data, persist, f.err = fn()
	if f.err == nil && persist {
		// Best-effort persist; the computed bytes are authoritative.
		_ = s.Put(key, f.data)
	}
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return f.data, false, f.err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Shared:  s.shared.Load(),
		Puts:    s.puts.Load(),
	}
}

// Keys lists the resident entry keys in sorted order.
func (s *Store) Keys() ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if len(name) == 2*sha256.Size {
			keys = append(keys, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// indexEntry is one row of the flushed index file.
type indexEntry struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

// Flush writes index.json — a sorted listing of resident entries with
// payload sizes — atomically into the cache directory. The index is
// forensic (operators and tests read it; lookups never do: the
// content-addressed paths are authoritative), and the graceful-
// shutdown path flushes it so a drained daemon leaves a consistent
// inventory behind.
func (s *Store) Flush() error {
	keys, err := s.Keys()
	if err != nil {
		return err
	}
	idx := struct {
		Magic   string       `json:"magic"`
		Entries []indexEntry `json:"entries"`
	}{Magic: entryMagic, Entries: make([]indexEntry, 0, len(keys))}
	for _, k := range keys {
		st, err := os.Stat(s.path(k))
		if err != nil {
			continue // raced with an eviction; the index is best-effort
		}
		idx.Entries = append(idx.Entries, indexEntry{Key: k, Size: st.Size()})
	}
	data, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".index-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, "index.json")); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// Close flushes the index. The store must not be used afterwards.
func (s *Store) Close() error { return s.Flush() }

// readEntry loads and verifies one entry file. Any integrity violation
// returns a non-IsNotExist error (the caller evicts).
func readEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	header, err := r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("truncated header: %w", err)
	}
	var magic, wantHex string
	var n int
	if _, err := fmt.Sscanf(header, "%s %s %d", &magic, &wantHex, &n); err != nil {
		return nil, fmt.Errorf("bad header %q: %w", header, err)
	}
	if magic != entryMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	if n < 0 {
		return nil, fmt.Errorf("negative payload length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("truncated payload: %w", err)
	}
	// Trailing garbage is corruption too: the frame must be exact.
	if err := checkEOF(r); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	want, err := hex.DecodeString(wantHex)
	if err != nil || !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("payload digest mismatch")
	}
	return payload, nil
}

// checkEOF confirms the reader is exhausted.
func checkEOF(r *bufio.Reader) error {
	if _, err := r.ReadByte(); err == io.EOF {
		return nil
	}
	return fmt.Errorf("trailing bytes after payload")
}
