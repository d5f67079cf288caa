package core

import (
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
)

// countDeviceBuilds wraps s's device constructor and returns the number
// of devices s has built since.
func countDeviceBuilds(s *Session) *atomic.Int64 {
	var n atomic.Int64
	build := s.newGPU
	s.newGPU = func(cfg config.GPU, kernels []*kern.Kernel) (*gpu.GPU, error) {
		n.Add(1)
		return build(cfg, kernels)
	}
	return &n
}
