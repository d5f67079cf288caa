package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
)

func small() *Cache {
	return New(config.Cache{SizeBytes: 2048, LineBytes: 128, Assoc: 2}) // 8 sets
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

func TestFlush(t *testing.T) {
	c := small()
	for i := uint64(0); i < 16; i++ {
		c.Access(i * 128)
	}
	if c.Resident() == 0 {
		t.Fatal("nothing resident after fills")
	}
	c.Flush()
	if c.Resident() != 0 {
		t.Fatal("lines survive Flush")
	}
	if c.Access(0) {
		t.Fatal("hit after Flush")
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
	c := New(config.Cache{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 4})
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
	c := New(config.Cache{SizeBytes: 8 << 10, LineBytes: 128, Assoc: 4})
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
	c := New(config.Cache{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 8})
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
	New(config.Cache{SizeBytes: 1000, LineBytes: 100, Assoc: 3})
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
// capacity with a hot half-capacity region, probes, the odd flush — at the
// L1 and L2 geometries, direct-mapped and fully associative, and compares
// every answer and the final counters.
func TestTagStoreAgainstModel(t *testing.T) {
	base := config.Base()
	for _, g := range []struct {
		name string
		geo  config.Cache
	}{
		{"L1", base.L1},
		{"L2", base.L2},
		{"direct-mapped", config.Cache{SizeBytes: 1024, LineBytes: 128, Assoc: 1}},
		{"fully-associative", config.Cache{SizeBytes: 2048, LineBytes: 128, Assoc: 16}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			c, m := New(g.geo), newModel(g.geo)
			src := rng.New(rng.Mix(seed, uint64(g.geo.SizeBytes)))
			for i := 0; i < 60_000; i++ {
				addr := src.Uint64() % uint64(4*g.geo.SizeBytes)
				if src.Intn(2) == 0 {
					addr %= uint64(g.geo.SizeBytes / 2)
				}
				switch r := src.Intn(5000); {
				case r == 0:
					c.Flush()
					m.sets = make([][]uint64, len(m.sets))
				case r < 500:
					_, _, at := m.find(addr)
					if got, want := c.Probe(addr), at >= 0; got != want {
						t.Fatalf("%s seed %d op %d: Probe(%#x) = %v, the model says %v", g.name, seed, i, addr, got, want)
					}
				default:
					if got, want := c.Access(addr), m.access(addr); got != want {
						t.Fatalf("%s seed %d op %d: Access(%#x) hit = %v, the model says %v", g.name, seed, i, addr, got, want)
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

// TestFlushedWayIsNotAnEviction fills a set, flushes and refills it: a
// flushed way still holds its old tag, but taking it evicts nothing, and
// its old line does not hit.
func TestFlushedWayIsNotAnEviction(t *testing.T) {
	c, m := small(), newModel(config.Cache{SizeBytes: 2048, LineBytes: 128, Assoc: 2})
	for _, a := range []uint64{0, 1024} { // both ways of set 0
		c.Access(a)
		m.access(a)
	}
	c.Flush()
	m.sets = make([][]uint64, len(m.sets))
	for _, a := range []uint64{1024, 2048} { // refill: an old line, a new one
		if c.Access(a) || m.access(a) {
			t.Fatalf("Access(%#x) hit in a flushed set", a)
		}
	}
	if c.Stats.Evicts != 0 || c.Stats != m.stats {
		t.Fatalf("stats %+v after refilling a flushed set, the model has %+v", c.Stats, m.stats)
	}
	if c.Access(3072); c.Stats.Evicts != 1 || c.Probe(1024) || !c.Probe(2048) {
		t.Fatalf("a third line in the full set: evicts %d, LRU line resident %v, MRU line resident %v",
			c.Stats.Evicts, c.Probe(1024), c.Probe(2048))
	}
}
