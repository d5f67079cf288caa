// Package cache implements the set-associative caches used for the per-SM
// L1 data cache and the per-partition L2 slices.
//
// The model is a timing-free tag array: Access looks up a line, fills it
// on a miss (allocate-on-miss with LRU replacement), and reports hit or
// miss. Latency and bandwidth are charged by the caller (sm and mem), so
// the cache itself only has to be a correct and fast tag store.
package cache

import (
	"fmt"

	"repro/internal/config"
)

// Stats accumulates access counters for the power model and reports.
type Stats struct {
	Accesses int64
	Misses   int64
	Evicts   int64
}

// Cache is a set-associative, allocate-on-miss tag array with true-LRU
// replacement. It is not safe for concurrent use; the simulator is
// single-threaded by design (deterministic cycle loop).
type Cache struct {
	sets      int
	assoc     int
	lineShift uint
	setMask   uint64

	// ways[set*assoc+way], set-major: a probe reads one set's ways side by
	// side. The full line number doubles as the tag. tick is the last-touch
	// timestamp; 0 marks a way never filled, which no access
	// hits and which, being lower than any real tick, is also the first
	// choice of victim. A uint32 tick would wrap after 4G accesses per
	// cache; uint64 keeps replacement exact.
	ways []way
	tick uint64

	Stats Stats
}

type way struct{ tag, tick uint64 }

// New builds a cache from its geometry. It panics on invalid geometry;
// config.Validate should have been called first.
func New(cfg config.Cache) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	sets := cfg.Sets()
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		sets:      sets,
		assoc:     cfg.Assoc,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      make([]way, sets*cfg.Assoc),
	}
}

// set returns the ways line maps to.
func (c *Cache) set(line uint64) []way {
	base := int(line&c.setMask) * c.assoc
	return c.ways[base : base+c.assoc]
}

// Access probes the cache for addr, filling the line on a miss. It
// returns true on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.Stats.Accesses++
	c.tick++
	line := addr >> c.lineShift
	set := c.set(line)
	// The victim is the first invalid way, else the least recently used:
	// the lowest tick, first on ties.
	victim := &set[0]
	for i := range set {
		w := &set[i]
		if w.tag == line && w.tick != 0 {
			w.tick = c.tick
			return true
		}
		if w.tick < victim.tick {
			victim = w
		}
	}
	c.Stats.Misses++
	if victim.tick != 0 {
		c.Stats.Evicts++
	}
	*victim = way{tag: line, tick: c.tick}
	return false
}

// CheckInvariants verifies structural invariants: no duplicate tags within
// a set and every resident tag in the set it maps to. It returns an error
// description or "" when healthy. Exposed for property-based tests.
func (c *Cache) CheckInvariants() string {
	for s := 0; s < c.sets; s++ {
		seen := make(map[uint64]bool, c.assoc)
		for _, w := range c.set(uint64(s)) {
			if w.tick == 0 {
				continue
			}
			if seen[w.tag] {
				return fmt.Sprintf("duplicate tag %#x in set %d", w.tag, s)
			}
			seen[w.tag] = true
			if int(w.tag&c.setMask) != s {
				return fmt.Sprintf("tag %#x resident in wrong set %d", w.tag, s)
			}
		}
	}
	return ""
}
