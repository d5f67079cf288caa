package core

import (
	"context"
	"errors"
	"sync"
)

// isolatedCache memoizes a session's isolated-IPC measurements with
// singleflight semantics: when several of its runs ask for the same
// kernel's baseline concurrently, exactly one measures it and the rest
// wait for the result. A suite workload is keyed by its name, a custom
// profile by its name plus a hash of the profile value.
// Session.IsolatedIPC measures baselines and Session.RunTraced files the
// IPC of a lone unmanaged run; the two are the same simulation, so either
// fills the same entry with the same value.
type isolatedCache struct {
	mu      sync.Mutex
	entries map[string]*isoEntry
}

type isoEntry struct {
	once sync.Once
	val  float64
	err  error
}

// errMeasurePanicked is what the waiters of a flight whose compute
// panicked observe; the panic itself unwinds through the computing caller.
var errMeasurePanicked = errors.New("core: isolated measurement panicked")

// ipc returns the cached value for key, computing it via compute on the
// first request. Failed computations (for example a canceled context, or
// a panic) are evicted so a later request recomputes instead of caching
// the error — or, for a panic, a zero baseline — forever. A waiter whose
// flight failed observes the error, except when the flight ended on a
// context error and the waiter's own ctx is still live: that is the
// owner giving up, not the measurement failing, so the waiter measures
// again with its own compute.
func (c *isolatedCache) ipc(ctx context.Context, key string, compute func() (float64, error)) (float64, error) {
	for {
		val, owner, err := c.flight(key, compute)
		if err == nil {
			return val, nil
		}
		ownerGaveUp := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if owner || !ownerGaveUp || ctx.Err() != nil {
			return 0, err
		}
	}
}

// flight joins (or starts) the flight for key and reports its outcome and
// whether this caller ran compute. A failed flight is evicted before
// flight returns, panics included.
func (c *isolatedCache) flight(key string, compute func() (float64, error)) (val float64, owner bool, err error) {
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
		owner = true
		e.err = errMeasurePanicked // overwritten unless compute panics
		e.val, e.err = compute()
	})
	return e.val, owner, e.err
}
