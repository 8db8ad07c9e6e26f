package gseqtab

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	tb := New[int64](16)
	if _, ok := tb.Get(0); ok {
		t.Fatal("empty table reports a hit")
	}
	tb.Put(0, 10)
	tb.Put(5, 50)
	if v, ok := tb.Get(0); !ok || v != 10 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	tb.Put(0, 11) // overwrite
	if v, _ := tb.Get(0); v != 11 {
		t.Fatalf("overwrite lost: %d", v)
	}
	tb.Delete(0)
	if _, ok := tb.Get(0); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tb.Get(5); !ok || v != 50 {
		t.Fatal("unrelated key disturbed by delete")
	}
}

// Keys that alias the same ring slot (differ by a multiple of the ring
// size) must not read as each other: the younger key spills, and both
// remain independently addressable.
func TestAliasedKeysSpill(t *testing.T) {
	tb := New[int](16) // ring size 16
	tb.Put(3, 100)
	tb.Put(3+16, 200) // same slot, different key
	tb.Put(3+32, 300)
	if v, ok := tb.Get(3); !ok || v != 100 {
		t.Fatalf("Get(3) = %d,%v", v, ok)
	}
	if v, ok := tb.Get(19); !ok || v != 200 {
		t.Fatalf("Get(19) = %d,%v", v, ok)
	}
	if v, ok := tb.Get(35); !ok || v != 300 {
		t.Fatalf("Get(35) = %d,%v", v, ok)
	}
	tb.Delete(19)
	if _, ok := tb.Get(19); ok {
		t.Fatal("spilled key survived delete")
	}
	if _, ok := tb.Get(3); !ok {
		t.Fatal("ring key lost when its alias was deleted")
	}
}

// Differential fuzz against a plain map: random interleavings of
// Put/Get/Delete/DeleteRange/DeleteBelow over a sliding key window (the
// engine's access pattern) plus deliberate far-out-of-window keys (the
// spill path) and keys below an earlier DeleteBelow cut (the engine's
// committed-state path re-puts long-pruned producers) always agree
// with map semantics.
func TestMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := New[uint32](64)
		ref := make(map[uint64]uint32)
		base := uint64(0) // sliding window start

		randKey := func() uint64 {
			switch rng.Intn(10) {
			case 0:
				return base + uint64(rng.Intn(1024)) // out-of-window
			case 1:
				if base > 0 {
					return uint64(rng.Int63n(int64(base))) // below a cut
				}
			}
			return base + uint64(rng.Intn(80))
		}

		for step := 0; step < 20_000; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // Put
				k, v := randKey(), rng.Uint32()
				tb.Put(k, v)
				ref[k] = v
			case 4, 5, 6: // Get
				k := randKey()
				got, ok := tb.Get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("seed %d step %d: Get(%d) = %d,%v want %d,%v", seed, step, k, got, ok, want, wok)
				}
			case 7: // Delete
				k := randKey()
				tb.Delete(k)
				delete(ref, k)
			case 8: // DeleteRange (squash sweep)
				lo := base + uint64(rng.Intn(80))
				hi := lo + uint64(rng.Intn(200))
				tb.DeleteRange(lo, hi)
				for k := range ref {
					if k >= lo && k < hi {
						delete(ref, k)
					}
				}
			default: // DeleteBelow (prune sweep), then slide the window
				base += uint64(rng.Intn(40))
				tb.DeleteBelow(base)
				for k := range ref {
					if k < base {
						delete(ref, k)
					}
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, map has %d", seed, step, tb.Len(), len(ref))
			}
		}
	}
}

// In-window use never allocates after construction: the engine relies
// on this for its zero-allocation steady state.
func TestInWindowOpsDoNotAllocate(t *testing.T) {
	tb := New[int64](128)
	g := uint64(0)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			tb.Put(g, int64(g))
			if _, ok := tb.Get(g); !ok {
				t.Fatal("lost key")
			}
			tb.Delete(g)
			g++
		}
	})
	if avg != 0 {
		t.Errorf("in-window ops allocate: %.2f allocs/run, want 0", avg)
	}
}
