// Package mem models the GPU memory system below the L1s: the on-chip
// interconnect, the memory partitions (one L2 slice + memory controller
// each), and DRAM with row-buffer timing.
//
// The model is an analytic queueing model at cycle resolution: every
// partition tracks the time its controller is next free, so a request's
// service start is max(arrival, nextFree) and the queueing delay seen by
// bandwidth-saturating kernels emerges naturally. This is the behaviour
// that matters for the paper's M+M results (Section 4.2, Figure 7): Spart
// cannot partition bandwidth, while quota throttling reduces traffic.
package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
)

// AccessKind distinguishes reads from (posted) writes.
type AccessKind uint8

const (
	// Read is a load miss that needs a data response.
	Read AccessKind = iota
	// Write is a posted store: it consumes bandwidth but the issuing
	// warp does not wait for it.
	Write
)

// PartitionStats accumulates per-partition counters.
type PartitionStats struct {
	Requests  int64
	L2Hits    int64
	DRAMReads int64 // DRAM data bursts (reads+writes that miss L2)
	RowHits   int64
	// StallCycles accumulates the queueing delay experienced by
	// requests (service start minus arrival), a congestion signal.
	StallCycles int64
}

// partition is one L2 slice + memory controller + DRAM channel.
type partition struct {
	l2       *cache.Cache
	nextFree int64
	// openRow[bank] is the currently open DRAM row (+1; 0 = none).
	openRow []uint64
	stats   PartitionStats
}

// System is the complete memory system shared by all SMs.
type System struct {
	cfg       config.GPU
	parts     []*partition
	lineShift uint
}

// New builds the memory system for a GPU configuration. Slice p sees only
// lines ≡ p mod n, so the low k bits of its set index, 2^k = gcd(n, sets),
// are fixed: k is TrailingZeros(n), capped by cache.New at the index width.
func New(cfg config.GPU) *System {
	s := &System{cfg: cfg, lineShift: uint(bits.TrailingZeros(uint(cfg.L2.LineBytes)))}
	fixed := uint(bits.TrailingZeros(uint(cfg.NumMemControllers)))
	s.parts = make([]*partition, cfg.NumMemControllers)
	for i := range s.parts {
		s.parts[i] = &partition{
			l2:      cache.New(cfg.L2, fixed),
			openRow: make([]uint64, cfg.DRAMBanksPerMC),
		}
	}
	return s
}

// PartitionOf returns the index of the partition servicing addr
// (line-interleaved across controllers, as on real parts).
func (s *System) PartitionOf(addr uint64) int {
	return int((addr >> s.lineShift) % uint64(len(s.parts)))
}

// Access submits one 128B transaction to the memory system at time now and
// returns the cycle at which the response reaches the requesting SM. For
// writes the return value is when the write is accepted (posted); the
// caller should not block the warp on it beyond the configured
// WriteLatency.
func (s *System) Access(now int64, addr uint64, kind AccessKind) int64 {
	p := s.parts[s.PartitionOf(addr)]
	p.stats.Requests++

	arrival := now + s.cfg.InterconnectDelay
	start := max(arrival, p.nextFree)
	p.stats.StallCycles += start - arrival
	p.nextFree = start + s.cfg.MCServiceInterval

	// L2 slice lookup at service time.
	if p.l2.Access(addr) {
		p.stats.L2Hits++
		if kind == Write {
			return start + s.cfg.MCServiceInterval
		}
		done := start + s.cfg.L2HitLatency
		return done + s.cfg.InterconnectDelay
	}

	// DRAM access with row-buffer behaviour.
	p.stats.DRAMReads++
	bank := int((addr >> 14) % uint64(len(p.openRow)))
	row := (addr >> 18) + 1
	lat := s.cfg.DRAMRowMissLatency
	if p.openRow[bank] == row {
		p.stats.RowHits++
		lat = s.cfg.DRAMRowHitLatency
	}
	p.openRow[bank] = row
	// DRAM occupancy extends the controller's busy window a little
	// beyond the fixed service interval, so streams of misses saturate
	// earlier than streams of L2 hits.
	p.nextFree += s.cfg.MCServiceInterval
	if kind == Write {
		// A posted write is off the requester's hands once the
		// controller accepts it; only bandwidth was consumed.
		return start + s.cfg.MCServiceInterval
	}
	done := start + s.cfg.L2HitLatency + lat
	return done + s.cfg.InterconnectDelay
}

// noEvent mirrors gpu.NoEvent (this package cannot import gpu): the
// sentinel returned when no cycle at/after the queried one needs the
// main loop's attention.
const noEvent = int64(1) << 62

// NextEventAt implements the memory system's side of the event-wheel
// contract: the earliest cycle >= a at which the system requires the
// main loop to process a cycle. The model is fully reactive — every
// access computes its completion time at issue, queue state (nextFree)
// advances only when Access is called, and the completion's future
// effects (MSHR release, credit release, warp wake) live in the issuing
// SM's heaps, which the SM's own NextEventAt already bounds. The memory
// system therefore never schedules an independent event.
func (s *System) NextEventAt(a int64) int64 { return noEvent }

// Stats returns aggregate statistics across partitions.
func (s *System) Stats() (agg PartitionStats) {
	for _, p := range s.parts {
		agg.Requests += p.stats.Requests
		agg.L2Hits += p.stats.L2Hits
		agg.DRAMReads += p.stats.DRAMReads
		agg.RowHits += p.stats.RowHits
		agg.StallCycles += p.stats.StallCycles
	}
	return agg
}

// L2Stats returns combined L2 statistics for the power model.
func (s *System) L2Stats() (agg cache.Stats) {
	for _, p := range s.parts {
		st := p.l2.Stats
		agg.Accesses += st.Accesses
		agg.Misses += st.Misses
		agg.Evicts += st.Evicts
	}
	return agg
}

// String summarizes the system state.
func (s *System) String() string {
	st := s.Stats()
	return fmt.Sprintf("mem{parts:%d reqs:%d l2hit:%.1f%% rowhit:%.1f%%}",
		len(s.parts), st.Requests,
		pct(st.L2Hits, st.Requests), pct(st.RowHits, st.DRAMReads))
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
