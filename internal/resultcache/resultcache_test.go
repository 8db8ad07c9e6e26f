package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestKeyGolden pins the key derivation: the cache is shared across
// processes and daemon versions, so the hash of a fixed input must
// never drift. If this test fails, the key layout changed and every
// deployed cache silently invalidates — that must be a deliberate
// decision, not an accident.
func TestKeyGolden(t *testing.T) {
	got := Key("fgstp-engine/7", []byte(`{"Name":"medium"}`), []byte{1, 2, 3}, "bench", "E2", "3000", "json")
	const want = "281b70acb1cdadc0f09f8e3d4c704dbe9c35d11b937734bc64fb4db88e15836f"
	if got != want {
		t.Fatalf("Key golden drifted:\n got %s\nwant %s", got, want)
	}
}

// TestKeyStability asserts the content-addressing contract: identical
// inputs agree; any single-component delta — config byte, trace byte,
// engine version, parameter, or bytes shifted between components —
// disagrees.
func TestKeyStability(t *testing.T) {
	base := func() string {
		return Key("engine/1", []byte("config"), []byte("trace"), "p1", "p2")
	}
	if base() != base() {
		t.Fatal("identical inputs yield different keys")
	}
	variants := map[string]string{
		"engine version": Key("engine/2", []byte("config"), []byte("trace"), "p1", "p2"),
		"config delta":   Key("engine/1", []byte("confiG"), []byte("trace"), "p1", "p2"),
		"trace delta":    Key("engine/1", []byte("config"), []byte("tracf"), "p1", "p2"),
		"param delta":    Key("engine/1", []byte("config"), []byte("trace"), "p1", "p3"),
		"param count":    Key("engine/1", []byte("config"), []byte("trace"), "p1"),
		"shifted bytes":  Key("engine/1", []byte("configt"), []byte("race"), "p1", "p2"),
		"merged params":  Key("engine/1", []byte("config"), []byte("trace"), "p1p2"),
	}
	seen := map[string]string{base(): "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s: %s", name, prev, k)
		}
		seen[k] = name
	}
}

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTestStore(t)
	key := Key("e/1", []byte("c"), []byte("t"), "roundtrip")
	payload := []byte("the full JSON export\nwith newlines\x00and binary\xff")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit before Put")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCorruptEntryFallsBackToRecompute drives every corruption shape a
// disk can serve — flipped payload byte, truncation, trailing garbage,
// garbage header — and asserts each reads as a miss (never bad bytes),
// is evicted, and the next GetOrComputeIf recomputes and repairs the
// entry.
func TestCorruptEntryFallsBackToRecompute(t *testing.T) {
	payload := []byte("deterministic simulation output, 100 bytes of it padded ---------------------------------------")
	corruptions := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-3] ^= 0x40
			return out
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), "extra"...) }},
		{"garbage header", func(b []byte) []byte { return append([]byte("not a cache entry\n"), b...) }},
		{"empty file", func([]byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestStore(t)
			key := Key("e/1", []byte("c"), []byte("t"), tc.name)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(s.path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path(key), tc.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupted entry served as a hit: %q", got)
			}
			if s.Stats().Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", s.Stats().Corrupt)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Fatalf("corrupted entry not evicted: %v", err)
			}
			recomputes := 0
			got, hit, err := s.GetOrComputeIf(key, func() ([]byte, bool, error) {
				recomputes++
				return payload, true, nil
			})
			if err != nil || hit || recomputes != 1 || !bytes.Equal(got, payload) {
				t.Fatalf("recompute: got=%q hit=%v err=%v recomputes=%d", got, hit, err, recomputes)
			}
			// The repaired entry serves clean hits again.
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("repaired entry not served: %q %v", got, ok)
			}
		})
	}
}

// TestGetOrComputeSingleFlight asserts one execution for N identical
// simultaneous requests: every caller gets the same bytes, the compute
// function runs exactly once, and the shared counter records the
// piggybackers.
func TestGetOrComputeSingleFlight(t *testing.T) {
	s := openTestStore(t)
	key := Key("e/1", []byte("c"), []byte("t"), "singleflight")
	const n = 32
	var (
		computes atomic.Int64
		entered  = make(chan struct{})
		release  = make(chan struct{})
		wg       sync.WaitGroup
	)
	results := make([][]byte, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			data, _, err := s.GetOrComputeIf(key, func() ([]byte, bool, error) {
				computes.Add(1)
				close(entered)
				<-release // hold the flight open so every caller piles up
				return []byte("result"), true, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = data
		}(i)
	}
	<-entered
	close(release)
	wg.Wait()
	if c := computes.Load(); c != 1 {
		t.Fatalf("compute ran %d times for %d concurrent identical requests", c, n)
	}
	for i, r := range results {
		if string(r) != "result" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
	if st := s.Stats(); st.Shared == 0 {
		t.Fatalf("no callers recorded as shared: %+v", st)
	}
	// The flight's result persisted: a later Get is a disk hit.
	if _, ok := s.Get(key); !ok {
		t.Fatal("single-flight result was not persisted")
	}
}

// TestGetOrComputeLateFollower forces the interleaving behind the old
// double computation: a caller misses the store, and before it looks up
// the flights a leader computes, persists and retires its flight. The
// late caller must read the leader's entry, not compute again.
func TestGetOrComputeLateFollower(t *testing.T) {
	s := openTestStore(t)
	key := Key("e/1", []byte("c"), []byte("t"), "late-follower")
	// Holding the flight lock parks the caller between its store miss
	// and its flight lookup; the miss counter says when it got there.
	s.mu.Lock()
	type result struct {
		data []byte
		hit  bool
		err  error
	}
	done := make(chan result, 1)
	var computes atomic.Int64
	go func() {
		data, hit, err := s.GetOrComputeIf(key, func() ([]byte, bool, error) {
			computes.Add(1)
			return []byte("recomputed"), true, nil
		})
		done <- result{data, hit, err}
	}()
	for s.Stats().Misses == 0 {
		runtime.Gosched()
	}
	// The leader's whole flight fits in this window: it persists the
	// entry, then retires its flight (there is none left to find).
	if err := s.Put(key, []byte("result")); err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	r := <-done
	if r.err != nil || !r.hit || string(r.data) != "result" {
		t.Fatalf("late follower: %q hit=%v err=%v; want the leader's entry as a hit", r.data, r.hit, r.err)
	}
	if n := computes.Load(); n != 0 {
		t.Fatalf("late follower computed the key again (%d times)", n)
	}
}

// TestGetOrComputeErrorNotCached: a failed computation reaches every
// waiter and is retried by the next call.
func TestGetOrComputeErrorNotCached(t *testing.T) {
	s := openTestStore(t)
	key := Key("e/1", []byte("c"), []byte("t"), "error")
	boom := fmt.Errorf("engine exploded")
	if _, _, err := s.GetOrComputeIf(key, func() ([]byte, bool, error) { return nil, true, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("failed computation was cached")
	}
	data, hit, err := s.GetOrComputeIf(key, func() ([]byte, bool, error) { return []byte("ok"), true, nil })
	if err != nil || hit || string(data) != "ok" {
		t.Fatalf("retry: %q %v %v", data, hit, err)
	}
	// A result its computation declines to persist is served, not stored.
	key = Key("e/1", []byte("c"), []byte("t"), "degraded")
	data, hit, err = s.GetOrComputeIf(key, func() ([]byte, bool, error) { return []byte("degraded"), false, nil })
	if err != nil || hit || string(data) != "degraded" {
		t.Fatalf("unpersisted: %q %v %v", data, hit, err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("a result computed with persist=false was stored")
	}
}

// TestFlushIndex: Close writes a sorted, parseable inventory of the
// resident entries.
func TestFlushIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		Key("e/1", []byte("c"), []byte("t"), "a"),
		Key("e/1", []byte("c"), []byte("t"), "b"),
		Key("e/1", []byte("c"), []byte("t"), "c"),
	}
	for i, k := range keys {
		if err := s.Put(k, bytes.Repeat([]byte{byte(i)}, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	listed, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(keys) {
		t.Fatalf("Keys() = %d entries, want %d", len(listed), len(keys))
	}
	for i := 1; i < len(listed); i++ {
		if listed[i-1] >= listed[i] {
			t.Fatalf("Keys() not sorted: %v", listed)
		}
	}
	idx, err := os.ReadFile(dir + "/index.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !bytes.Contains(idx, []byte(k)) {
			t.Fatalf("index.json missing key %s", k)
		}
	}
}
