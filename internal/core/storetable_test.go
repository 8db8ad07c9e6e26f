package core

import (
	"math/rand"
	"testing"
)

// The store table, with each store expired window gseqs after it as the
// steerer does, answers every load exactly as a trace-long map of each
// address's newest store, filtered by the steerer's age test (a load
// at gseq g pairs with store s only while g-s < window), would.
// Addresses are drawn from a family that shares one home slot, so
// probe chains collide and removals must shift entries back, mixed
// with addresses of their own; each seed alternates dense and sparse
// store phases, and a fresh-address phase fills the table to its
// window-entry bound. Every address is checked at every gseq, so each
// store is probed at age exactly window-1 (still paired) and window
// (aged out).
func TestStoreTableMatchesWindowedMap(t *testing.T) {
	for _, window := range []int{8, 13, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tab := newStoreTable(window)
			target := tab.home(0x1000)
			var colliding []uint64
			for a := uint64(0x1000); len(colliding) < 3*window; a += 8 {
				if tab.home(a) == target {
					colliding = append(colliding, a)
				}
			}
			pool := append([]uint64{0x40, 0x48, 0x50, 0x2000_0000}, colliding[:6]...)
			ref := make(map[uint64]uint64)
			var ages [2]int // probes at age window-1 and window
			check := func(g, addr uint64) {
				s, ok := ref[addr]
				if ok {
					switch g - s {
					case uint64(window) - 1:
						ages[0]++
					case uint64(window):
						ages[1]++
					}
				}
				ok = ok && g-s < uint64(window)
				got, gok := tab.get(addr)
				if gok != ok || ok && got != s {
					t.Fatalf("window %d seed %d gseq %d addr %#x: table (%d, %v), windowed map (%d, %v)",
						window, seed, g, addr, got, gok, s, ok)
				}
			}
			stored := make(map[uint64]uint64) // gseq -> address of its store
			fresh := 0
			for g := uint64(0); g < 6000; g++ {
				if g >= uint64(window) {
					if addr, ok := stored[g-uint64(window)]; ok {
						tab.expire(addr, g-uint64(window))
					}
				}
				for _, a := range pool {
					check(g, a)
				}
				var addr uint64
				switch phase := g / 500 % 3; {
				case phase == 2: // a new colliding address every store
					addr = colliding[fresh%len(colliding)]
					fresh++
				case phase == 0 && rng.Intn(4) != 0, phase == 1 && rng.Intn(6) == 0:
					addr = pool[rng.Intn(len(pool))]
				default:
					continue
				}
				check(g, addr)
				tab.put(addr, g)
				ref[addr] = g
				stored[g] = addr
				live := 0
				for _, e := range tab.slots {
					if e.gseq != 0 {
						live++
					}
				}
				if live > window {
					t.Fatalf("window %d seed %d gseq %d: %d live entries", window, seed, g, live)
				}
			}
			if ages[0] == 0 || ages[1] == 0 {
				t.Fatalf("window %d seed %d: probes at age window-1: %d, at window: %d", window, seed, ages[0], ages[1])
			}
		}
	}
}
