package mem

// Probe replays a recorded access sequence against the live cache state
// without mutating it. The hot-block engine uses it to prove the
// "recurring hierarchy response" precondition of periodic-miss
// templates: before a replay is allowed, every recorded Fetch/Load in
// the captured span is re-simulated here and must produce the recorded
// latency. Because the probe mirrors Hierarchy/Cache semantics exactly
// (LRU aging, first-invalid-wins allocation, the unconditional L1I
// next-line stream prefetch, the optional L2 next-line prefetch, and
// peer-L1D invalidation on stores), a passing probe guarantees the real
// accesses performed afterwards by the replay apply step return the
// same latencies and leave the caches in the probed state.
//
// The probe is a copy-on-write overlay: the first touch of a cache set
// copies its ways; an overlay clock per cache shadows the LRU clock.
// Sets never touched are read through to the live cache. A probe is
// reusable across checks via Reset (the maps are retained to avoid
// per-replay allocation).
type Probe struct {
	sets   map[probeKey][]line
	clocks map[*Cache]uint32
}

type probeKey struct {
	c   *Cache
	set int
}

// NewProbe returns an empty probe overlay.
func NewProbe() *Probe {
	return &Probe{
		sets:   make(map[probeKey][]line),
		clocks: make(map[*Cache]uint32),
	}
}

// Reset discards all overlay state, making the probe read the live
// caches again.
func (p *Probe) Reset() {
	clear(p.sets)
	clear(p.clocks)
}

// set returns the overlay copy of cache c's set s, copying the live
// ways on first touch.
func (p *Probe) set(c *Cache, s int) []line {
	k := probeKey{c, s}
	ln, ok := p.sets[k]
	if !ok {
		base := s * c.cfg.Assoc
		ln = make([]line, c.cfg.Assoc)
		copy(ln, c.lines[base:base+c.cfg.Assoc])
		p.sets[k] = ln
	}
	return ln
}

// tick advances the overlay LRU clock of c, seeding it from the live
// clock on first touch.
func (p *Probe) tick(c *Cache) uint32 {
	cl, ok := p.clocks[c]
	if !ok {
		cl = c.clock
	}
	cl++
	p.clocks[c] = cl
	return cl
}

// access mirrors Cache.Access against the overlay (no statistics).
func (p *Probe) access(c *Cache, addr uint64, write bool) (hit bool) {
	cl := p.tick(c)
	ln := p.set(c, c.setOf(addr))
	tag := c.tagOf(addr)
	for w := range ln {
		l := &ln[w]
		if l.valid && l.tag == tag {
			l.age = cl
			if write {
				l.dirty = true
			}
			return true
		}
	}
	victim := 0
	for w := range ln {
		if !ln[w].valid {
			victim = w
			break
		}
		if ln[w].age < ln[victim].age {
			victim = w
		}
	}
	ln[victim] = line{tag: tag, valid: true, dirty: write, age: cl}
	return false
}

// lookup mirrors Cache.Lookup against the overlay.
func (p *Probe) lookup(c *Cache, addr uint64) bool {
	ln, ok := p.sets[probeKey{c, c.setOf(addr)}]
	if !ok {
		return c.Lookup(addr)
	}
	tag := c.tagOf(addr)
	for w := range ln {
		if ln[w].valid && ln[w].tag == tag {
			return true
		}
	}
	return false
}

// invalidate mirrors Cache.Invalidate against the overlay (no clock
// tick, matching the live cache).
func (p *Probe) invalidate(c *Cache, addr uint64) {
	ln := p.set(c, c.setOf(addr))
	tag := c.tagOf(addr)
	for w := range ln {
		if ln[w].valid && ln[w].tag == tag {
			ln[w].valid = false
			return
		}
	}
}

// Fetch mirrors Hierarchy.Fetch against the overlay and returns the
// latency the live hierarchy would return.
func (p *Probe) Fetch(h *Hierarchy, pc uint64) int {
	lat := h.L1I.cfg.LatencyCycles
	if !p.access(h.L1I, pc, false) {
		lat += p.accessL2(h, pc, false)
	}
	next := h.L1I.LineAddr(pc) + uint64(h.L1I.cfg.LineBytes)
	if !p.lookup(h.L1I, next) {
		p.access(h.L1I, next, false)
		p.access(h.L2, next, false)
	}
	return lat
}

// Load mirrors Hierarchy.Load against the overlay.
func (p *Probe) Load(h *Hierarchy, addr uint64) int {
	if p.access(h.L1D, addr, false) {
		return h.L1D.cfg.LatencyCycles
	}
	lat := h.L1D.cfg.LatencyCycles + p.accessL2(h, addr, false)
	p.maybePrefetch(h, addr)
	return lat
}

// Store mirrors Hierarchy.Store against the overlay, including the
// peer-L1D invalidations of a shared-L2 hierarchy.
func (p *Probe) Store(h *Hierarchy, addr uint64) int {
	for _, pc := range h.peers {
		p.invalidate(pc, pc.LineAddr(addr))
	}
	if p.access(h.L1D, addr, true) {
		return h.L1D.cfg.LatencyCycles
	}
	lat := h.L1D.cfg.LatencyCycles + p.accessL2(h, addr, true)
	p.maybePrefetch(h, addr)
	return lat
}

func (p *Probe) accessL2(h *Hierarchy, addr uint64, write bool) int {
	if p.access(h.L2, addr, write) {
		return h.L2.cfg.LatencyCycles
	}
	return h.L2.cfg.LatencyCycles + h.dramLatency
}

func (p *Probe) maybePrefetch(h *Hierarchy, addr uint64) {
	if !h.prefetch {
		return
	}
	next := h.L2.LineAddr(addr) + uint64(h.L2.cfg.LineBytes)
	if !p.lookup(h.L2, next) {
		p.access(h.L2, next, false)
	}
}
