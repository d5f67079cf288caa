package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestIsolatedCacheCancelDuringFill cancels a baseline measurement while
// it is in flight on the singleflight cache: the computing goroutine and
// every waiter joined to the same flight must observe the error promptly
// (no deadlock), and the failed entry must be evicted — not poisoned — so
// the next request recomputes and succeeds.
func TestIsolatedCacheCancelDuringFill(t *testing.T) {
	c := NewIsolatedCache()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var startedOnce sync.Once
	// compute may legitimately run more than once: if one waiter's failed
	// flight is already evicted before the other waiter arrives, the
	// second waiter starts a fresh flight (that is the evict-not-poison
	// semantics under test), so the start signal must be idempotent.
	compute := func() (float64, error) {
		startedOnce.Do(func() { close(started) })
		// Stand-in for gpu.RunCtx blocking until epoch-boundary
		// cancellation: wait for the context, then surface its error.
		<-ctx.Done()
		return 0, ctx.Err()
	}

	type res struct {
		v   float64
		err error
	}
	results := make(chan res, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.ipc("sgemm", compute)
			results <- res{v, err}
		}()
	}
	<-started
	cancel()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: singleflight waiters never returned after cancellation")
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("waiter %d: err = %v, want Canceled", i, r.err)
		}
	}

	// The failed flight must have been evicted, not cached as an error.
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after a failed fill, want 0", c.Len())
	}
	v, err := c.ipc("sgemm", func() (float64, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("recompute after eviction = (%v, %v), want (42, nil)", v, err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache Len = %d after successful recompute", c.Len())
	}
}

// TestIsolatedCachePanicDuringFill: a measurement that panics (under a
// Guard, as every simulation runs) must not leave a zero baseline behind.
// The panic reaches the guard as a *PanicError, and the next request
// measures afresh.
func TestIsolatedCachePanicDuringFill(t *testing.T) {
	c := NewIsolatedCache()
	err := Guard(context.Background(), 0, func(context.Context) error {
		_, err := c.ipc("sgemm", func() (float64, error) { panic("measurement fault") })
		return err
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "measurement fault" || len(pe.Stack) == 0 {
		t.Fatalf("guarded panicking fill = %v, want *PanicError with its stack", err)
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after a panicked fill, want 0", c.Len())
	}
	if v, err := c.ipc("sgemm", func() (float64, error) { return 42, nil }); err != nil || v != 42 {
		t.Fatalf("recompute after a panicked fill = (%v, %v), want (42, nil)", v, err)
	}
}

// TestGuardDeadline: Guard's timeout reaches fn as a context deadline.
func TestGuardDeadline(t *testing.T) {
	err := Guard(context.Background(), time.Millisecond, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestSessionIsolatedIPCCancelThenRetry is the same scenario through the
// Session facade with a real simulation: a canceled IsolatedIPC must not
// poison the shared cache for a later successful call.
func TestSessionIsolatedIPCCancelThenRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cache := NewIsolatedCache()
	opts := append(fastOpts(), WithIsolatedCache(cache))
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.IsolatedIPC(ctx, KernelSpec{Workload: "sgemm"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("failed baseline left %d cache entries", cache.Len())
	}
	ipc, err := s.IsolatedIPC(context.Background(), KernelSpec{Workload: "sgemm"})
	if err != nil || ipc <= 0 {
		t.Fatalf("retry after cancellation = (%v, %v)", ipc, err)
	}
}
