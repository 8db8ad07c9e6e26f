// Package mem implements the memory hierarchy substrate: set-
// associative write-back caches with LRU replacement, a next-line
// prefetcher, a flat DRAM latency model and the multi-level hierarchy
// composition the CMP modes build on (private L1s over a possibly
// shared L2).
//
// The hierarchy is a latency model: an access returns the number of
// cycles it costs and updates cache state. Bandwidth is modelled at the
// core (load/store ports); outstanding misses overlap freely, i.e.
// MSHRs are unbounded. That approximation holds identically across all
// machine modes compared in the experiments.
package mem

import "fmt"

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
	// LatencyCycles is the hit latency of this level.
	LatencyCycles int
}

// Validate reports configuration errors.
func (c *CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by assoc %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	if c.LatencyCycles < 1 {
		return fmt.Errorf("cache %s: latency %d < 1", c.Name, c.LatencyCycles)
	}
	return nil
}

// CacheStats counts the traffic a cache has seen.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses per access.
func (s *CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	age   uint32
}

// Cache is one set-associative, write-back, write-allocate cache level
// with true-LRU replacement.
type Cache struct {
	cfg       CacheConfig
	sets      int
	lineShift uint
	lines     []line // sets*assoc, way-major within a set
	clock     uint32

	Stats CacheStats
}

// NewCache builds a cache; it reports an error on an invalid
// configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		lines:     make([]line, sets*cfg.Assoc),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) setOf(addr uint64) int {
	return int((addr >> c.lineShift) & uint64(c.sets-1))
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return (addr >> c.lineShift) / uint64(c.sets)
}

// Lookup reports whether addr hits, without changing any state.
func (c *Cache) Lookup(addr uint64) bool {
	base := c.setOf(addr) * c.cfg.Assoc
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Assoc; w++ {
		if l := &c.lines[base+w]; l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Access performs a load (write=false) or store (write=true) of addr.
// It returns hit and, when the allocation evicted a dirty victim,
// writeback=true (the hierarchy charges the writeback to the next
// level's traffic counters, not to the access's latency — write-back
// buffers hide it).
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool) {
	c.Stats.Accesses++
	c.clock++
	base := c.setOf(addr) * c.cfg.Assoc
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Assoc; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.age = c.clock
			if write {
				l.dirty = true
			}
			return true, false
		}
	}
	c.Stats.Misses++
	writeback = c.allocate(base, tag, write)
	return false, writeback
}

// allocate fills a line for tag in the set starting at base, returning
// whether a dirty victim was evicted.
func (c *Cache) allocate(base int, tag uint64, write bool) bool {
	victim := base
	for w := 0; w < c.cfg.Assoc; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victim = base + w
			break
		}
		if l.age < c.lines[victim].age {
			victim = base + w
		}
	}
	v := &c.lines[victim]
	wb := v.valid && v.dirty
	*v = line{tag: tag, valid: true, dirty: write, age: c.clock}
	return wb
}

// Invalidate drops the line containing addr if present, returning
// whether it was present (dirty contents are discarded: the simulator
// carries architectural data in the functional trace, so coherence here
// only needs to model the latency effect of losing the line).
func (c *Cache) Invalidate(addr uint64) bool {
	base := c.setOf(addr) * c.cfg.Assoc
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Assoc; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.valid = false
			return true
		}
	}
	return false
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}
