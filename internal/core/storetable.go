package core

// storeTable maps a word address to the newest store to it among the
// last window steered instructions: the steering unit's view of which
// store a load will read. The steerer expires each store exactly when a
// load window instructions younger could no longer pair with it, so the
// table holds at most window entries however long the trace runs, and
// it never allocates after construction.
//
// It is an open-addressed hash table (linear probing, backward-shift
// deletion, so no tombstones) at most half full.
type storeTable struct {
	// slots holds {addr, gseq+1}; gseq 0 marks an empty slot.
	slots []storeEntry
	mask  uint64
	shift uint
}

type storeEntry struct{ addr, gseq uint64 }

func newStoreTable(window int) storeTable {
	n, bits := 1, uint(0)
	for n < 2*window {
		n <<= 1
		bits++
	}
	return storeTable{
		slots: make([]storeEntry, n),
		mask:  uint64(n - 1),
		shift: 64 - bits,
	}
}

// home is addr's preferred slot (Fibonacci hashing: word addresses are
// strided, so their low bits alone would cluster).
func (t *storeTable) home(addr uint64) uint64 {
	return (addr * 0x9E3779B97F4A7C15) >> t.shift
}

// find returns the slot holding addr, or the empty slot ending its
// probe chain.
func (t *storeTable) find(addr uint64) uint64 {
	i := t.home(addr)
	for t.slots[i].gseq != 0 && t.slots[i].addr != addr {
		i = (i + 1) & t.mask
	}
	return i
}

// put records the store at gseq g to addr, superseding any older one.
func (t *storeTable) put(addr, g uint64) {
	t.slots[t.find(addr)] = storeEntry{addr: addr, gseq: g + 1}
}

// expire ages out the store at gseq g to addr. A younger store to the
// same address supersedes it and keeps the slot.
func (t *storeTable) expire(addr, g uint64) {
	if i := t.find(addr); t.slots[i].gseq == g+1 {
		t.remove(i)
	}
}

// get returns the gseq of the newest store to addr still in the table.
func (t *storeTable) get(addr uint64) (uint64, bool) {
	e := t.slots[t.find(addr)]
	return e.gseq - 1, e.gseq != 0
}

// remove empties slot i, shifting later entries of its probe chain
// back so every remaining entry stays reachable from its home slot.
func (t *storeTable) remove(i uint64) {
	for j := (i + 1) & t.mask; t.slots[j].gseq != 0; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at i only if its home is no
		// further along the chain than i.
		if (j-t.home(t.slots[j].addr))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = storeEntry{}
}
