package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() CacheConfig {
	return CacheConfig{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 2, LatencyCycles: 2}
}

func mustCache(tb testing.TB, cfg CacheConfig) *Cache {
	tb.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		tb.Fatalf("NewCache: %v", err)
	}
	return c
}

func mustHier(tb testing.TB, cfg HierarchyConfig) *Hierarchy {
	tb.Helper()
	h, err := NewHierarchy(cfg)
	if err != nil {
		tb.Fatalf("NewHierarchy: %v", err)
	}
	return h
}

func mustPair(tb testing.TB, cfg HierarchyConfig) (*Hierarchy, *Hierarchy) {
	tb.Helper()
	a, b, err := NewSharedL2Pair(cfg)
	if err != nil {
		tb.Fatalf("NewSharedL2Pair: %v", err)
	}
	return a, b
}

func TestCacheConfigValidate(t *testing.T) {
	good := smallCache()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Assoc: 2, LatencyCycles: 1},
		{Name: "npo2line", SizeBytes: 1024, LineBytes: 48, Assoc: 2, LatencyCycles: 1},
		{Name: "assoc", SizeBytes: 1024, LineBytes: 64, Assoc: 5, LatencyCycles: 1},
		{Name: "npo2sets", SizeBytes: 1024 + 512, LineBytes: 64, Assoc: 2, LatencyCycles: 1},
		{Name: "lat", SizeBytes: 1024, LineBytes: 64, Assoc: 2, LatencyCycles: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s accepted, want error", c.Name)
		}
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := mustCache(t, smallCache())
	if hit, _ := c.Access(0x1000, false); hit {
		t.Error("cold access must miss")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Error("second access must hit")
	}
	// Same line, different word.
	if hit, _ := c.Access(0x1008, false); !hit {
		t.Error("same-line access must hit")
	}
	// Different line.
	if hit, _ := c.Access(0x1040, false); hit {
		t.Error("next-line access must miss")
	}
	if c.Stats.Misses != 2 || c.Stats.Accesses != 4 {
		t.Errorf("stats misses/accesses = %d/%d, want 2/4", c.Stats.Misses, c.Stats.Accesses)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 2-way: three distinct lines mapping to the same set evict the
	// least recently used.
	c := mustCache(t, smallCache())
	sets := uint64(1024 / 64 / 2) // 8 sets
	stride := sets * 64
	a, b, d := uint64(0), stride, 2*stride // all map to set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a now MRU
	c.Access(d, false) // evicts b
	if !c.Lookup(a) {
		t.Error("a must survive (MRU)")
	}
	if c.Lookup(b) {
		t.Error("b must be evicted (LRU)")
	}
	if !c.Lookup(d) {
		t.Error("d must be resident")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := mustCache(t, smallCache())
	sets := uint64(1024 / 64 / 2)
	stride := sets * 64
	c.Access(0, true) // dirty
	c.Access(stride, false)
	_, wb := c.Access(2*stride, false) // evicts line 0 (dirty)
	if !wb {
		t.Error("evicting a dirty line must report writeback")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := mustCache(t, smallCache())
	c.Access(0x2000, true)
	if !c.Invalidate(0x2000) {
		t.Error("invalidate of resident line must return true")
	}
	if c.Lookup(0x2000) {
		t.Error("line must be gone after invalidate")
	}
	if c.Invalidate(0x2000) {
		t.Error("invalidate of absent line must return false")
	}
	if hit, _ := c.Access(0x2000, false); hit {
		t.Error("access after invalidate must miss")
	}
}

func TestCacheLookupIsPure(t *testing.T) {
	c := mustCache(t, smallCache())
	c.Lookup(0x3000)
	if c.Stats.Accesses != 0 {
		t.Error("Lookup must not count as access")
	}
	if hit, _ := c.Access(0x3000, false); hit {
		t.Error("Lookup must not allocate")
	}
}

// Property: after Access(addr), Lookup(addr) is true until an
// intervening eviction; a cache with one set and assoc A retains
// exactly the last A distinct lines.
func TestCacheRetainsLastAssocLines(t *testing.T) {
	cfg := CacheConfig{Name: "fa", SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4, LatencyCycles: 1}
	c := mustCache(t, cfg)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var recent []uint64
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(32)) * 64
			c.Access(addr, rng.Intn(2) == 0)
			// Maintain the set of the 4 most recently used distinct lines.
			for j, r := range recent {
				if r == addr {
					recent = append(recent[:j], recent[j+1:]...)
					break
				}
			}
			recent = append(recent, addr)
			if len(recent) > 4 {
				recent = recent[1:]
			}
			for _, r := range recent {
				if !c.Lookup(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func testHierCfg() HierarchyConfig {
	return HierarchyConfig{
		L1I:         CacheConfig{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Assoc: 2, LatencyCycles: 2},
		L1D:         CacheConfig{Name: "l1d", SizeBytes: 4096, LineBytes: 64, Assoc: 2, LatencyCycles: 2},
		L2:          CacheConfig{Name: "l2", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 8, LatencyCycles: 10},
		DRAMLatency: 100,
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := mustHier(t, testHierCfg())
	// Cold load: L1 + L2 + DRAM.
	if lat := h.Load(0x10000); lat != 2+10+100 {
		t.Errorf("cold load latency %d, want 112", lat)
	}
	// Warm load: L1 hit.
	if lat := h.Load(0x10000); lat != 2 {
		t.Errorf("warm load latency %d, want 2", lat)
	}
	if h.DRAMAccesses != 1 {
		t.Errorf("dram accesses = %d, want 1", h.DRAMAccesses)
	}
}

func TestHierarchyL2HitAfterL1Eviction(t *testing.T) {
	cfg := testHierCfg()
	h := mustHier(t, cfg)
	// Fill L1D far beyond capacity with distinct lines that fit in L2.
	for a := uint64(0); a < 16*1024; a += 64 {
		h.Load(a)
	}
	// Address 0 was evicted from L1D but must still be in L2.
	lat := h.Load(0)
	if lat != 2+10 {
		t.Errorf("L2-hit load latency %d, want 12", lat)
	}
}

func TestHierarchyFetchSeparateFromData(t *testing.T) {
	h := mustHier(t, testHierCfg())
	h.Load(0x5000)
	// Fetching the same address goes through L1I, which is cold — but
	// hits in the now-warm L2.
	if lat := h.Fetch(0x5000); lat != 2+10 {
		t.Errorf("fetch latency %d, want 12 (L1I miss, L2 hit)", lat)
	}
	if lat := h.Fetch(0x5000); lat != 2 {
		t.Errorf("warm fetch latency %d, want 2", lat)
	}
}

func TestHierarchyStoreWriteAllocate(t *testing.T) {
	h := mustHier(t, testHierCfg())
	h.Store(0x7000)
	if lat := h.Load(0x7000); lat != 2 {
		t.Errorf("load after store latency %d, want 2 (write-allocate)", lat)
	}
}

func TestSharedL2PairInvalidation(t *testing.T) {
	a, b := mustPair(t, testHierCfg())
	if a.L2 != b.L2 {
		t.Fatal("pair must share the L2")
	}
	// Core B loads a line; core A stores to it; B's next load must miss
	// in L1 (invalidated) but hit the shared L2.
	b.Load(0x9000)
	if lat := b.Load(0x9000); lat != 2 {
		t.Fatalf("warm load latency %d, want 2", lat)
	}
	a.Store(0x9000)
	if lat := b.Load(0x9000); lat != 2+10 {
		t.Errorf("post-invalidate load latency %d, want 12", lat)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	cfg := testHierCfg()
	cfg.NextLinePrefetch = true
	h := mustHier(t, cfg)
	h.Load(0x20000) // misses; prefetches 0x20040 into L2
	if h.Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1", h.Prefetches)
	}
	// The next line now hits in L2 (L1 still misses).
	if lat := h.Load(0x20040); lat != 2+10 {
		t.Errorf("prefetched-line load latency %d, want 12", lat)
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	cfg := testHierCfg()
	cfg.DRAMLatency = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero DRAM latency must be rejected")
	}
	cfg = testHierCfg()
	cfg.L1D.Assoc = 3
	if err := cfg.Validate(); err == nil {
		t.Error("bad L1D geometry must be rejected")
	}
}

// Property: latency of any load is one of the three composition levels.
func TestHierarchyLatencyLevels(t *testing.T) {
	h := mustHier(t, testHierCfg())
	rng := rand.New(rand.NewSource(7))
	valid := map[int]bool{2: true, 12: true, 112: true}
	for i := 0; i < 5000; i++ {
		lat := h.Load(uint64(rng.Intn(1<<18)) &^ 7)
		if !valid[lat] {
			t.Fatalf("load latency %d not one of the composition levels", lat)
		}
	}
}
