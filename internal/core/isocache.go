package core

import (
	"errors"
	"sync"
)

// IsolatedCache memoizes isolated-IPC measurements by workload name with
// singleflight semantics: when several goroutines ask for the same
// kernel's baseline concurrently, exactly one measures it and the rest
// wait for the result. A cache is private to one Session by default;
// WithIsolatedCache shares it across sessions with identical
// configuration so a worker pool computes each baseline once.
type IsolatedCache struct {
	mu      sync.Mutex
	entries map[string]*isoEntry
}

type isoEntry struct {
	once sync.Once
	val  float64
	err  error
}

// NewIsolatedCache returns an empty cache ready for sharing.
func NewIsolatedCache() *IsolatedCache {
	return &IsolatedCache{entries: make(map[string]*isoEntry)}
}

// Len reports how many baselines have been requested so far (including
// in-flight measurements).
func (c *IsolatedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// errMeasurePanicked is what the waiters of a flight whose compute
// panicked observe; the panic itself unwinds through the computing caller.
var errMeasurePanicked = errors.New("core: isolated measurement panicked")

// ipc returns the cached value for key, computing it via compute on the
// first request. Failed computations (for example a canceled context, or
// a panic) are evicted so a later request recomputes instead of caching
// the error — or, for a panic, a zero baseline — forever; concurrent
// waiters of the failed flight still observe the error.
func (c *IsolatedCache) ipc(key string, compute func() (float64, error)) (float64, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &isoEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
	}()
	e.once.Do(func() {
		e.err = errMeasurePanicked // overwritten unless compute panics
		e.val, e.err = compute()
	})
	if e.err != nil {
		return 0, e.err
	}
	return e.val, nil
}
