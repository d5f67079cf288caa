package mem

import (
	"reflect"

	"repro/internal/cache"
	"repro/internal/config"
)

// NumPartitions returns the number of memory partitions.
func (s *System) NumPartitions() int { return len(s.parts) }

// sliceWays returns how many ways partition p's L2 slice stores.
func (s *System) sliceWays(p int) int {
	return reflect.ValueOf(s.parts[p].l2).Elem().FieldByName("ways").Len()
}

// partStats returns partition p's counters.
func (s *System) partStats(p int) PartitionStats { return s.parts[p].stats }

// newFullSlices builds the memory system with every L2 slice storing the
// whole geometry, cache.New(cfg.L2, 0): the reference a slice that stores
// only its partition's sets must match.
func newFullSlices(cfg config.GPU) *System {
	s := New(cfg)
	for _, p := range s.parts {
		p.l2 = cache.New(cfg.L2, 0)
	}
	return s
}
