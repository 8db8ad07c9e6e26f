// Package gseqtab provides a map-replacement keyed by global sequence
// numbers (gseqs) for the simulator's per-instruction side tables.
//
// The access pattern these tables share is hostile to Go maps: every
// simulated instruction inserts and deletes a handful of entries, so a
// map churns buckets and hashes on the hottest path of the cycle
// engine. But gseqs are dense and window-local — at any instant the
// live keys span at most the sequencer's lookahead window — so an
// open-addressed ring indexed by gseq&mask resolves almost every
// operation to one array slot. Keys are stored alongside values
// (offset by one so the zero slot means empty) and verified on every
// probe, which makes aliasing with long-dead keys read as "absent"
// rather than as stale data.
//
// A small spill map backs the ring for the rare out-of-window keys
// (e.g. producer gseqs that committed long ago but are still named by
// steering metadata, or entries that outlive a window's worth of
// younger inserts). The spill is allocated lazily; workloads that stay
// in the window never touch it.
package gseqtab

// Table maps gseq -> V over a sliding window of live keys.
type Table[V any] struct {
	key  []uint64 // gseq+1; 0 = empty slot
	val  []V
	mask uint64
	// spill holds entries whose ring slot is occupied by a different
	// live key. nil until first needed.
	spill map[uint64]V
	// cut is the last DeleteBelow bound: no key below it is live except
	// those put since, which below lists (possibly with keys deleted or
	// listed twice since; deleting those again is harmless). The next
	// DeleteBelow sweeps from cut up, plus below, not the whole ring.
	cut   uint64
	below []uint64
}

// New builds a table whose ring covers at least window concurrent keys
// spanning no more than the next power of two above window.
func New[V any](window int) *Table[V] {
	size := 1
	for size < window {
		size <<= 1
	}
	return &Table[V]{
		key:  make([]uint64, size),
		val:  make([]V, size),
		mask: uint64(size - 1),
	}
}

// Get returns the value stored for g.
func (t *Table[V]) Get(g uint64) (V, bool) {
	i := g & t.mask
	if t.key[i] == g+1 {
		return t.val[i], true
	}
	if t.spill != nil {
		v, ok := t.spill[g]
		return v, ok
	}
	var zero V
	return zero, false
}

// Put stores v for g, replacing any existing entry.
func (t *Table[V]) Put(g uint64, v V) {
	if g < t.cut {
		t.below = append(t.below, g)
	}
	i := g & t.mask
	switch t.key[i] {
	case g + 1, 0:
		t.key[i] = g + 1
		t.val[i] = v
		// A previous insert of g may have spilled while this slot was
		// held by another key; the ring entry supersedes it.
		if t.spill != nil {
			delete(t.spill, g)
		}
		return
	}
	// Slot held by another live key: spill. (Out-of-window insert.)
	if t.spill == nil {
		t.spill = make(map[uint64]V)
	}
	t.spill[g] = v
}

// Delete removes g's entry if present.
func (t *Table[V]) Delete(g uint64) {
	i := g & t.mask
	if t.key[i] == g+1 {
		var zero V
		t.key[i] = 0
		t.val[i] = zero
		return
	}
	if t.spill != nil {
		delete(t.spill, g)
	}
}

// DeleteRange removes every entry with lo <= gseq < hi — the squash
// sweep. Cost is O(hi-lo) ring slots plus the spill scan (empty in the
// steady state), independent of table size when the range is small.
func (t *Table[V]) DeleteRange(lo, hi uint64) {
	var zero V
	if span := hi - lo; span <= t.mask {
		for g := lo; g < hi; g++ {
			i := g & t.mask
			if t.key[i] == g+1 {
				t.key[i] = 0
				t.val[i] = zero
			}
		}
	} else {
		// Range wider than the ring: every slot is a candidate, so walk
		// the ring once and match keys instead of probing per-gseq.
		for i := range t.key {
			if k := t.key[i]; k != 0 && k-1 >= lo && k-1 < hi {
				t.key[i] = 0
				t.val[i] = zero
			}
		}
	}
	for g := range t.spill {
		if g >= lo && g < hi {
			delete(t.spill, g)
		}
	}
}

// DeleteBelow removes every entry with gseq < cut — the prune sweep
// for tables that accumulate stale dead keys (never read again, but
// occupying slots a window-aliased future key will need). Cost is the
// ring slots of keys between the previous cut and this one (and their
// spill scan, empty in the steady state), plus the keys put below the
// previous cut since.
func (t *Table[V]) DeleteBelow(cut uint64) {
	if cut > t.cut {
		t.DeleteRange(t.cut, cut)
		t.cut = cut
	}
	n := 0
	for _, g := range t.below {
		if g < cut {
			t.Delete(g)
		} else {
			t.below[n] = g
			n++
		}
	}
	t.below = t.below[:n]
}

// Len counts live entries (test helper; O(size)).
func (t *Table[V]) Len() int {
	n := len(t.spill)
	for _, k := range t.key {
		if k != 0 {
			n++
		}
	}
	return n
}
