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
	"math/bits"

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
	assoc    int
	setShift uint // addr >> setShift & setMask is the stored set: the line bits above the fixed ones
	setMask  int
	tagShift uint   // addr >> tagShift is a line's tag: its line number without the set bits
	tickBits uint   // min(tagShift, 32): a way's low bits, below its tag
	tickMask uint64 // 1<<tickBits - 1, the largest tick

	// ways[set*assoc+way], set-major: a probe reads one set's ways side by
	// side. A way is one word, tag<<tickBits | tick: the tag needs only
	// the address bits above the set index, so the bits the line offset
	// and set index free below it hold the way's last-touch tick, and any
	// 64-bit address keeps its whole tag. Tick 0 marks a way never
	// filled, which no access hits and which, being lower than any real
	// tick, is also the first choice of victim; a never-filled way is
	// the zero word.
	ways []uint64
	// clock[set] is the set's last tick. LRU only compares the ways of
	// one set, so a clock per set orders them exactly as one clock per
	// cache would, and it runs over its field only after tickMask
	// accesses to that set; renumber then compacts the set's ticks.
	clock []uint32

	Stats Stats
}

// New builds a cache from its geometry. The caller guarantees that the low
// fixed bits (at most the index width) of every address's set index are
// equal, so only sets>>fixed sets are stored. It panics on invalid geometry.
func New(cfg config.Cache, fixed uint) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	lineShift := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	tagShift := lineShift + uint(bits.TrailingZeros(uint(cfg.Sets())))
	setShift := min(lineShift+fixed, tagShift)
	tickBits := min(tagShift, 32)
	sets := cfg.Sets() >> (setShift - lineShift)
	return &Cache{
		assoc:    cfg.Assoc,
		setShift: setShift,
		setMask:  sets - 1,
		tagShift: tagShift,
		tickBits: tickBits,
		tickMask: 1<<tickBits - 1,
		ways:     make([]uint64, sets*cfg.Assoc),
		clock:    make([]uint32, sets),
	}
}

// locate returns the set index addr maps to and its line's tag in place
// above the tick field.
func (c *Cache) locate(addr uint64) (set int, key uint64) {
	return int(addr>>c.setShift) & c.setMask, addr >> c.tagShift << c.tickBits
}

// set returns the ways of set s.
func (c *Cache) set(s int) []uint64 {
	base := s * c.assoc
	return c.ways[base : base+c.assoc]
}

// holds reports whether way w is a valid way of the line whose tag is
// key: w is key | t for a tick t in 1..tickMask. For any other w the
// unsigned difference is either below 1 and wraps high, or above tickMask.
func (c *Cache) holds(w, key uint64) bool { return w-key-1 < c.tickMask }

// Access probes the cache for addr, filling the line on a miss. It
// returns true on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.Stats.Accesses++
	s, key := c.locate(addr)
	tick := uint64(c.clock[s]) + 1
	if tick > c.tickMask {
		tick = c.renumber(s) + 1
	}
	c.clock[s] = uint32(tick)
	set := c.set(s)
	// The victim is the first invalid way, else the least recently used:
	// the lowest tick, first on ties.
	victim, oldest := 0, set[0]&c.tickMask
	for i, w := range set {
		if c.holds(w, key) {
			set[i] = key | tick
			return true
		}
		if t := w & c.tickMask; t < oldest {
			victim, oldest = i, t
		}
	}
	c.Stats.Misses++
	if oldest != 0 {
		c.Stats.Evicts++
	}
	set[victim] = key | tick
	return false
}

// renumber gives set s's valid ways the ticks 1..n in their recency
// order and returns n, so the set's clock restarts at n without changing
// which way is least recent. Valid ticks in a set are distinct, because
// each access takes a fresh one; so the r-th smallest is at least r, and
// a way already renumbered (to a tick below r) is never above last, the
// old tick of the (r-1)-th, and never picked twice. It runs once every
// tickMask-n accesses to a set, at assoc*(n+1) steps.
func (c *Cache) renumber(s int) uint64 {
	set := c.set(s)
	last := uint64(0)
	for r := uint64(1); ; r++ {
		at, next := -1, uint64(0)
		for i, w := range set {
			if t := w & c.tickMask; t > last && (at < 0 || t < next) {
				at, next = i, t
			}
		}
		if at < 0 {
			return r - 1
		}
		set[at] = set[at]&^c.tickMask | r
		last = next
	}
}

// CheckInvariants verifies structural invariants: no duplicate tags
// within a set, and a set's valid ticks distinct and no later than its
// clock. It returns an error description or "" when healthy. Exposed
// for property-based tests.
func (c *Cache) CheckInvariants() string {
	for s := range c.clock {
		tags := make(map[uint64]bool, c.assoc)
		ticks := make(map[uint64]bool, c.assoc)
		for _, w := range c.set(s) {
			tag, tick := w>>c.tickBits, w&c.tickMask
			if tick == 0 {
				continue
			}
			if tags[tag] {
				return fmt.Sprintf("duplicate tag %#x in set %d", tag, s)
			}
			if ticks[tick] || tick > uint64(c.clock[s]) {
				return fmt.Sprintf("tick %d in set %d is repeated or past the set's clock %d", tick, s, c.clock[s])
			}
			tags[tag], ticks[tick] = true, true
		}
	}
	return ""
}
