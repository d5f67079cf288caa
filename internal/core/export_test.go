package core

import (
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/gpu"
)

// countDeviceBuilds wraps s's device constructor and returns the number
// of devices s has built or rebuilt since.
func countDeviceBuilds(s *Session) *atomic.Int64 {
	var n atomic.Int64
	build := s.newGPU
	s.newGPU = func(prev *gpu.GPU, cfg config.GPU, specs []KernelSpec, seed uint64) (*gpu.GPU, error) {
		n.Add(1)
		return build(prev, cfg, specs, seed)
	}
	return &n
}
