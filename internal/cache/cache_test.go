package cache

import (
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
)

func small() *Cache {
	return New(config.Cache{SizeBytes: 2048, LineBytes: 128, Assoc: 2}, 0, nil) // 8 sets
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000) {
		t.Fatal("cold access reported a hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access to same line missed")
	}
	if !c.Access(0x1000 + 127) {
		t.Fatal("access within the same 128B line missed")
	}
	if c.Stats.Accesses != 3 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to the same set (8 sets * 128B line = 1KB stride).
	a, b, d := uint64(0), uint64(1024), uint64(2048)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	if c.Access(d) {
		t.Fatal("d should miss")
	}
	// d must have evicted b, not a.
	if !c.Probe(a) {
		t.Fatal("LRU evicted the MRU line")
	}
	if c.Probe(b) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Probe(d) {
		t.Fatal("filled line not resident")
	}
	if c.Stats.Evicts != 1 {
		t.Fatalf("evicts = %d, want 1", c.Stats.Evicts)
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := small()
	c.Access(0)
	c.Access(1024) // set now [0,1024], LRU=0
	c.Probe(0)     // must NOT refresh 0's recency
	c.Access(2048) // evicts true LRU: 0
	if c.Probe(0) {
		t.Fatal("Probe refreshed LRU state")
	}
}

func TestCapacityBound(t *testing.T) {
	c := small()
	for i := uint64(0); i < 1000; i++ {
		c.Access(i * 128)
	}
	if got := c.Resident(); got > 16 {
		t.Fatalf("%d lines resident, capacity is 16", got)
	}
}

func TestHitRate(t *testing.T) {
	c := small()
	c.Access(0)
	c.Access(0)
	c.Access(0)
	c.Access(128)
	if got := c.Stats.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
}

func TestWorkingSetFitsAllHitsSteadyState(t *testing.T) {
	c := New(config.Cache{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 4}, 0, nil)
	// 16KB working set in a 32KB cache: after the first pass, all hits.
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 16<<10; a += 128 {
			c.Access(a)
		}
	}
	total := c.Stats.Accesses
	if c.Stats.Misses != 128 { // exactly one cold miss per line
		t.Fatalf("misses = %d of %d, want 128 cold misses only", c.Stats.Misses, total)
	}
}

func TestInvariantsUnderRandomStream(t *testing.T) {
	c := New(config.Cache{SizeBytes: 8 << 10, LineBytes: 128, Assoc: 4}, 0, nil)
	src := rng.New(2024)
	for i := 0; i < 50000; i++ {
		c.Access(src.Uint64() % (1 << 20))
		if i%5000 == 0 {
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("invariant violated after %d accesses: %s", i, msg)
			}
		}
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestQuickHitAfterFill(t *testing.T) {
	c := New(config.Cache{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 8}, 0, nil)
	f := func(addr uint64) bool {
		addr %= 1 << 40
		c.Access(addr)
		return c.Probe(addr) // immediately after a fill the line is resident
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnInvalidGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid geometry")
		}
	}()
	New(config.Cache{SizeBytes: 1000, LineBytes: 100, Assoc: 3}, 0, nil)
}

// lruModel is the tag store as a list: per set, the resident lines in
// recency order, least recent first.
type lruModel struct {
	sets  [][]uint64
	assoc int
	line  uint64
	stats Stats
}

func newModel(geo config.Cache) *lruModel {
	return &lruModel{sets: make([][]uint64, geo.Sets()), assoc: geo.Assoc, line: uint64(geo.LineBytes)}
}

func (m *lruModel) find(addr uint64) (set *[]uint64, line uint64, at int) {
	line = addr / m.line
	set = &m.sets[line%uint64(len(m.sets))]
	for i, l := range *set {
		if l == line {
			return set, line, i
		}
	}
	return set, line, -1
}

func (m *lruModel) access(addr uint64) bool {
	m.stats.Accesses++
	set, line, at := m.find(addr)
	if at >= 0 {
		*set = append(append((*set)[:at:at], (*set)[at+1:]...), line)
		return true
	}
	m.stats.Misses++
	if len(*set) == m.assoc {
		m.stats.Evicts++
		*set = (*set)[1:]
	}
	*set = append(*set, line)
	return false
}

func (m *lruModel) resident() int {
	n := 0
	for _, set := range m.sets {
		n += len(set)
	}
	return n
}

// TestTagStoreAgainstModel drives the set-major tag store and the list
// model with the same seeded streams — accesses over four times the
// capacity with a hot half-capacity region, and probes — at the
// L1 and L2 geometries, direct-mapped and fully associative, and compares
// every answer and the counters after every access, so the hit, miss
// and evict sequences. Two inputs aim at the one-word way: an L1 stream
// whose addresses also differ in their top three bits, which only the
// tag above the tick field tells apart, and a 4-set, 16-way geometry of
// 16 B lines whose 6-bit ticks make each set renumber every 47
// accesses, over a thousand times a stream. The rest aim at a
// store of fewer sets, New(geo, fixed): each stream draws one value for
// the low fixed bits of its set index, as an L2 slice's partition fixes
// them, and the store must answer as the full geometry's model does,
// with fixed at 1, 2, 3, the index width and past it.
func TestTagStoreAgainstModel(t *testing.T) {
	base := config.Base()
	tick := config.Cache{SizeBytes: 1024, LineBytes: 16, Assoc: 16}
	for _, g := range []struct {
		name  string
		geo   config.Cache
		top   bool // set the top three address bits at random
		fixed uint // the low set-index bits one stream holds at one value
	}{
		{"L1", base.L1, false, 0},
		{"L2", base.L2, false, 0},
		{"direct-mapped", config.Cache{SizeBytes: 1024, LineBytes: 128, Assoc: 1}, false, 0},
		{"fully-associative", config.Cache{SizeBytes: 2048, LineBytes: 128, Assoc: 16}, false, 0},
		{"L1 top bits", base.L1, true, 0},
		{"tick overflow", tick, false, 0},
		{"L2 fixed 1", base.L2, true, 1},
		{"L2 fixed 2", base.L2, true, 2},
		{"L2 fixed 3", base.L2, true, 3},
		{"L2 fixed whole index", base.L2, true, 9},
		{"L2 fixed past index", base.L2, true, 40},
		{"direct-mapped fixed 2", config.Cache{SizeBytes: 1024, LineBytes: 128, Assoc: 1}, true, 2},
		{"tick overflow fixed 1", tick, true, 1},
	} {
		lineShift := bits.TrailingZeros(uint(g.geo.LineBytes))
		fixed := min(int(g.fixed), bits.TrailingZeros(uint(g.geo.Sets())))
		for seed := uint64(1); seed <= 3; seed++ {
			c, m := New(g.geo, g.fixed, nil), newModel(g.geo)
			if got, want := len(c.clock), g.geo.Sets()>>fixed; got != want {
				t.Fatalf("%s: New stores %d sets, want %d", g.name, got, want)
			}
			src := rng.New(rng.Mix(seed, uint64(g.geo.SizeBytes)))
			mask := uint64(1)<<fixed - 1
			held := (rng.Mix(seed, uint64(fixed)) & mask) << lineShift
			mask <<= lineShift
			for i := 0; i < 60_000; i++ {
				addr := src.Uint64() % uint64(4*g.geo.SizeBytes)
				if src.Intn(2) == 0 {
					addr %= uint64(g.geo.SizeBytes / 2)
				}
				if g.top {
					addr |= uint64(src.Intn(8)) << 61
				}
				addr = addr&^mask | held
				switch r := src.Intn(5000); {
				case r < 500:
					_, _, at := m.find(addr)
					if got, want := c.Probe(addr), at >= 0; got != want {
						t.Fatalf("%s seed %d op %d: Probe(%#x) = %v, the model says %v", g.name, seed, i, addr, got, want)
					}
				default:
					if got, want := c.Access(addr), m.access(addr); got != want || c.Stats != m.stats {
						t.Fatalf("%s seed %d op %d: Access(%#x) hit = %v with stats %+v, the model says %v with %+v",
							g.name, seed, i, addr, got, c.Stats, want, m.stats)
					}
				}
			}
			if c.Stats != m.stats || c.Resident() != m.resident() {
				t.Fatalf("%s seed %d: stats %+v with %d resident, the model has %+v with %d",
					g.name, seed, c.Stats, c.Resident(), m.stats, m.resident())
			}
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("%s seed %d: %s", g.name, seed, msg)
			}
		}
	}
}

// TestRebuildIsNew: a cache rebuilt over a used one, at its own geometry
// or another, is field for field the cache New builds fresh: no valid
// way, no ticked clock, no counts. A stale clock alone moves no result
// (the ticks keep a set's recency order from any start), so only this
// comparison sees it.
func TestRebuildIsNew(t *testing.T) {
	src := rng.New(5)
	c := New(config.Cache{SizeBytes: 8 << 10, LineBytes: 128, Assoc: 4}, 1, nil)
	for _, geo := range []config.Cache{
		{SizeBytes: 8 << 10, LineBytes: 128, Assoc: 4},
		{SizeBytes: 2 << 10, LineBytes: 128, Assoc: 2},
		{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 8},
	} {
		for i := 0; i < 20_000; i++ {
			c.Access(src.Uint64() & (1<<20 - 1))
		}
		if got, want := New(geo, 1, c), New(geo, 1, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: the rebuilt cache differs from a new one", geo)
		}
	}
}
