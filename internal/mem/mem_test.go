package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
)

func sys() *System { return New(config.Base(), nil) }

func TestPartitionRouting(t *testing.T) {
	s := sys()
	// Line-interleaved: consecutive 128B lines round-robin across MCs.
	for i := 0; i < 16; i++ {
		want := i % s.NumPartitions()
		if got := s.PartitionOf(uint64(i) * 128); got != want {
			t.Fatalf("PartitionOf(line %d) = %d, want %d", i, got, want)
		}
	}
	// Offsets within a line stay in the same partition.
	if s.PartitionOf(0) != s.PartitionOf(127) {
		t.Fatal("addresses within one line map to different partitions")
	}
}

func TestReadLatencyComponents(t *testing.T) {
	cfg := config.Base()
	s := New(cfg, nil)
	done := s.Access(0, 0, Read)
	// Cold read: interconnect + L2 lookup + DRAM row miss + interconnect.
	min := cfg.InterconnectDelay*2 + cfg.L2HitLatency + cfg.DRAMRowHitLatency
	if done <= min {
		t.Fatalf("cold read completed at %d, want > %d", done, min)
	}
	// Second access to the same line hits L2 and returns sooner.
	hit := s.Access(1000, 0, Read) - 1000
	miss := done - 0
	if hit >= miss {
		t.Fatalf("L2 hit latency %d not faster than cold miss %d", hit, miss)
	}
}

func TestWriteAcceptsEarly(t *testing.T) {
	cfg := config.Base()
	s := New(cfg, nil)
	accept := s.Access(0, 1<<20, Write)
	read := s.Access(0, 2<<20, Read)
	if accept >= read {
		t.Fatalf("posted write accept time %d should precede read completion %d", accept, read)
	}
}

func TestQueueingUnderBurst(t *testing.T) {
	s := sys()
	// Slam one partition with many requests at the same cycle; later
	// requests must observe growing queueing delay.
	var first, last int64
	for i := 0; i < 64; i++ {
		addr := uint64(i) * 128 * uint64(s.NumPartitions()) // same partition
		done := s.Access(0, addr, Read)
		if i == 0 {
			first = done
		}
		last = done
	}
	if last <= first {
		t.Fatal("no queueing delay under a same-cycle burst")
	}
	stalled := s.Stats().StallCycles
	if stalled <= 0 {
		t.Fatal("queueing not visible in StallCycles after burst")
	}
	s.Access(1<<30, 0, Read)
	if s.Stats().StallCycles != stalled {
		t.Fatal("the queue should drain with time")
	}
}

func TestRowBufferHitFaster(t *testing.T) {
	cfg := config.Base()
	cfg.L2 = config.Cache{SizeBytes: 1024, LineBytes: 128, Assoc: 2} // tiny L2: force DRAM
	s := New(cfg, nil)
	base := uint64(1 << 30)
	var times []int64
	now := int64(0)
	for i := 0; i < 3; i++ {
		// Distinct lines in the same DRAM row (row bits are addr>>18),
		// spaced a full L2-set stride apart so they do not hit in L2.
		addr := base + uint64(i)*128*uint64(s.NumPartitions())*4
		start := now
		done := s.Access(start, addr, Read)
		times = append(times, done-start)
		now = done + 1000
	}
	if times[1] >= times[0] {
		t.Fatalf("row-buffer hit %d not faster than row miss %d", times[1], times[0])
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := sys()
	for i := 0; i < 10; i++ {
		s.Access(int64(i*100), uint64(i)*128, Read)
	}
	st := s.Stats()
	if st.Requests != 10 {
		t.Fatalf("requests = %d", st.Requests)
	}
	l2 := s.L2Stats()
	if l2.Accesses != 10 {
		t.Fatalf("L2 accesses = %d", l2.Accesses)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestQuickCompletionAfterNow(t *testing.T) {
	s := sys()
	f := func(now uint32, addr uint64, write bool) bool {
		kind := Read
		if write {
			kind = Write
		}
		n := int64(now % 1_000_000)
		return s.Access(n, addr, kind) > n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSlicesStoreOnlyReachableSets builds the memory system at 1, 3, 4, 6
// and 8 controllers, Scale56, and a 2-set L2 under 8 controllers, where
// the interleave fixes more bits than the set index has. Each slice must
// store only the sets its partition reaches (sets >> k of them, 2^k =
// gcd(controllers, sets)), and a seeded stream of reads and writes, some
// with their top address bits set, must get every completion time and
// every partition counter of a system whose slices store all the sets.
func TestSlicesStoreOnlyReachableSets(t *testing.T) {
	withMCs := func(cfg config.GPU, n int) config.GPU {
		cfg.NumMemControllers = n
		return cfg
	}
	tiny := config.Base()
	tiny.L2 = config.Cache{SizeBytes: 1024, LineBytes: 128, Assoc: 4} // 2 sets
	for _, c := range []struct {
		name string
		cfg  config.GPU
		sets int // stored per slice
	}{
		{"1 MC", withMCs(config.Base(), 1), 512},
		{"3 MCs", withMCs(config.Base(), 3), 512},
		{"Base", config.Base(), 128},
		{"6 MCs", withMCs(config.Base(), 6), 256},
		{"8 MCs", withMCs(config.Base(), 8), 64},
		{"Scale56", config.Scale56(), 64},
		{"2-set L2, 8 MCs", withMCs(tiny, 8), 1},
	} {
		s, ref := New(c.cfg, nil), newFullSlices(c.cfg)
		for p := range s.parts {
			if got, want := s.sliceWays(p), c.sets*c.cfg.L2.Assoc; got != want {
				t.Fatalf("%s: slice %d stores %d ways, want %d", c.name, p, got, want)
			}
		}
		src := rng.New(rng.Mix(7, uint64(c.cfg.NumMemControllers)))
		for i := 0; i < 200_000; i++ {
			line := src.Uint64() % (1 << 16) // 8 MB of lines, four times the largest L2
			if src.Intn(2) == 0 {
				line %= 1 << 12
			}
			addr := line<<7 | uint64(src.Intn(128))
			if src.Intn(16) == 0 {
				addr |= uint64(src.Intn(8)) << 61
			}
			kind, now := AccessKind(src.Intn(2)), int64(i*4)
			if got, want := s.Access(now, addr, kind), ref.Access(now, addr, kind); got != want {
				t.Fatalf("%s access %d: Access(%d, %#x, %d) = %d, the full slices say %d", c.name, i, now, addr, kind, got, want)
			}
		}
		for p := range s.parts {
			if got, want := s.partStats(p), ref.partStats(p); got != want || got.L2Hits == 0 {
				t.Fatalf("%s: partition %d counters %+v, the full slices say %+v", c.name, p, got, want)
			}
		}
	}
}
