package core

import (
	"sync/atomic"

	"repro/internal/config"
)

// idleDevice returns the device the session's next run takes from its idle
// pool (the last released one the collector has not reclaimed), or nil.
func idleDevice(s *Session) *device {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.idle) - 1; i >= 0; i-- {
		if d := s.idle[i].Value(); d != nil {
			return d
		}
	}
	return nil
}

// newIsolatedCache returns an empty cache, a session's or a test's own.
func newIsolatedCache() *isolatedCache {
	return &isolatedCache{entries: make(map[string]*isoEntry)}
}

// len reports how many baselines have been requested so far (including
// in-flight measurements).
func (c *isolatedCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// countDeviceBuilds wraps s's device constructor and returns the number
// of devices s has built or rebuilt since.
func countDeviceBuilds(s *Session) *atomic.Int64 {
	var n atomic.Int64
	build := s.build
	s.build = func(d *device, cfg config.GPU, specs []KernelSpec, seed uint64) error {
		n.Add(1)
		return build(d, cfg, specs, seed)
	}
	return &n
}
