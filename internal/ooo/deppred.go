package ooo

// DepPred is the memory-dependence predictor: a load-wait table in the
// style of the Alpha 21264 store-wait bits, which is also the mechanism
// Fg-STP's cross-core dependence speculation uses (indexed there by
// load PC, trained by cross-core violations).
//
// A load whose PC hashes to a set entry is predicted dependent and must
// wait for older stores' addresses; all other loads issue speculatively.
// The table is cleared periodically so stale conservatism decays.
type DepPred struct {
	bits    int
	table   []uint8
	ops     uint64
	clearAt uint64

	// Mode flags: conservative predicts every load dependent; perfect
	// predicts none and the caller is expected to use oracle
	// information instead of violations.
	conservative bool
	perfect      bool
}

// clearInterval is the number of predictions between table clears.
const clearInterval = 64 * 1024

// NewDepPred builds a predictor with 2^bits entries. bits == 0 yields a
// conservative predictor (always wait); bits == -1 yields a perfect one
// (never wait, caller guarantees no violations).
func NewDepPred(bits int) *DepPred {
	switch {
	case bits == 0:
		return &DepPred{conservative: true}
	case bits < 0:
		return &DepPred{perfect: true}
	}
	return &DepPred{bits: bits, table: make([]uint8, 1<<bits)}
}

// Conservative reports whether the predictor always predicts dependent.
func (p *DepPred) Conservative() bool { return p.conservative }

// Perfect reports whether the predictor is an oracle (never wait,
// caller suppresses violations).
func (p *DepPred) Perfect() bool { return p.perfect }

func (p *DepPred) index(pc uint64) int {
	h := pc >> 2
	h ^= h >> uint(p.bits)
	return int(h & uint64(len(p.table)-1))
}

// MustWait reports whether the load at pc is predicted dependent on an
// older store with unresolved address.
func (p *DepPred) MustWait(pc uint64) bool {
	if p.conservative {
		return true
	}
	if p.perfect {
		return false
	}
	p.ops++
	if p.ops >= p.clearAt {
		p.clearAt = p.ops + clearInterval
		for i := range p.table {
			p.table[i] = 0
		}
	}
	return p.table[p.index(pc)] != 0
}

// MustWaitN is the batched form of MustWait for a load facing n older
// stores with unresolved addresses: it replicates, call for call, the
// legacy per-store query loop (one MustWait per store, aborting on the
// first "wait" answer), so the predictor's operation counter — and with
// it the periodic table clear — advances exactly as if the caller had
// scanned the store queue. The first query decides the outcome: if it
// answers "go", the remaining n-1 queries provably answer "go" too
// (nothing sets a table entry between queries of one scan, and clears
// only zero the table), but they are still issued for their counter
// side effect and checked for faithfulness.
func (p *DepPred) MustWaitN(pc uint64, n int) bool {
	if p.conservative || p.perfect || n <= 0 {
		return p.MustWait(pc)
	}
	if p.MustWait(pc) {
		return true
	}
	for k := 1; k < n; k++ {
		if p.MustWait(pc) {
			return true
		}
	}
	return false
}

// Violation trains the predictor after the load at pc was squashed by a
// memory-order violation.
func (p *DepPred) Violation(pc uint64) {
	if p.conservative || p.perfect {
		return
	}
	p.table[p.index(pc)] = 1
}
