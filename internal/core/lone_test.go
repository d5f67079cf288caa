package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workloads"
)

// TestLoneRunBuildsOneDevice: a cold lone unmanaged run simulates once
// and leaves its baseline cached, so the IsolatedIPC after it is a hit.
func TestLoneRunBuildsOneDevice(t *testing.T) {
	s := fastSession(t)
	builds := countDeviceBuilds(s)
	ctx := context.Background()
	res, err := s.Run(ctx, []KernelSpec{{Workload: "sgemm"}}, SchemeNone)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("cold lone run built %d devices, want 1", n)
	}
	if s.isolated.len() != 1 {
		t.Fatalf("cache holds %d baselines after a lone run, want 1", s.isolated.len())
	}
	iso, err := s.IsolatedIPC(ctx, KernelSpec{Workload: "sgemm"})
	if err != nil || iso != res.Kernels[0].IPC {
		t.Fatalf("IsolatedIPC after the lone run = (%v, %v), want %v", iso, err, res.Kernels[0].IPC)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("IsolatedIPC after a lone run built a device (%d builds)", n)
	}
}

// TestLoneGoalRunMeasuresBaselineFirst: a lone SchemeNone spec with a
// fractional goal needs its baseline before cycle 0, so it still measures
// it first, and its Result is byte-for-byte the one of the two-run path.
func TestLoneGoalRunMeasuresBaselineFirst(t *testing.T) {
	s := fastSession(t)
	builds := countDeviceBuilds(s)
	res, err := s.Run(context.Background(), []KernelSpec{{Workload: "sgemm", GoalFrac: 0.5}}, SchemeNone)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("lone goal run built %d devices, want 2 (baseline, then the run)", n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	// The Result as measured before lone runs filed their own baselines.
	const pinned = "9445485a12d55f468768dac75eeb4539d14a3da9e1f85189ee1c796973f0198e"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != pinned {
		t.Fatalf("Result JSON sha256 = %s, want %s:\n%s", got, pinned, b)
	}
}

// cancelAfter is a context that turns canceled after its first n Err
// calls: gpu.RunCtx polls Err on entry and at epoch boundaries, so this
// cancels a run mid-window, deterministically.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestLoneRunCanceledCachesNothing: a lone run canceled mid-window files
// no baseline.
func TestLoneRunCanceledCachesNothing(t *testing.T) {
	s := fastSession(t)
	builds := countDeviceBuilds(s)
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(3)
	_, err := s.Run(ctx, []KernelSpec{{Workload: "sgemm"}}, SchemeNone)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("canceled lone run built %d devices, want 1", n)
	}
	if s.isolated.len() != 0 {
		t.Fatalf("canceled lone run left %d cached baselines, want 0", s.isolated.len())
	}
}

// TestSameNamedProfilesKeepOwnBaselines: two custom profiles with one
// name but different grids are different kernels, so each gets its own
// baseline — the one a fresh session measures for it.
func TestSameNamedProfilesKeepOwnBaselines(t *testing.T) {
	ctx := context.Background()
	full := workloads.MicroALU()
	small := full
	small.GridTBs = 16
	s := fastSession(t)
	a, err := s.IsolatedIPC(ctx, KernelSpec{Profile: &full})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.IsolatedIPC(ctx, KernelSpec{Profile: &small})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fastSession(t).IsolatedIPC(ctx, KernelSpec{Profile: &small})
	if err != nil {
		t.Fatal(err)
	}
	if b != want || b == a {
		t.Fatalf("16-TB %s after the full grid: %v, want %v (a fresh session's; full grid %v)", small.Name, b, want, a)
	}
	// A suite workload keeps its name as its key, custom profile or not.
	if k := (KernelSpec{Workload: "sgemm", Profile: &full}).baselineKey(); k != "sgemm" {
		t.Fatalf("suite workload key = %q, want sgemm", k)
	}
}

// waitForOnceWaiters blocks until n goroutines are inside sync.Once.Do's
// slow path: the flight's owner running compute and n-1 waiters.
func waitForOnceWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for strings.Count(string(buf[:runtime.Stack(buf, true)]), "sync.(*Once).doSlow") < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d goroutines joined the flight", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaiterOutlivesOwnerCancel: a waiter with a live context does not
// inherit the cancellation of the goroutine measuring the baseline; it
// measures again. A flight that fails for any other reason still fails
// its waiters.
func TestWaiterOutlivesOwnerCancel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fail    func(ctx context.Context) error
		wantErr error
	}{
		{"canceled owner", func(ctx context.Context) error { return ctx.Err() }, nil},
		{"failed measurement", func(context.Context) error { return errBoom }, errBoom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newIsolatedCache()
			ownerCtx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = c.ipc(ownerCtx, "sgemm", func() (float64, error) {
					<-ownerCtx.Done()
					return 0, tc.fail(ownerCtx)
				})
			}()
			waitForOnceWaiters(t, 1)
			var got float64
			var err error
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err = c.ipc(context.Background(), "sgemm", func() (float64, error) { return 42, nil })
			}()
			waitForOnceWaiters(t, 2)
			cancel()
			wg.Wait()
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("waiter = (%v, %v), want %v", got, err, tc.wantErr)
				}
				return
			}
			if err != nil || got != 42 {
				t.Fatalf("waiter = (%v, %v), want its own measurement 42", got, err)
			}
			if c.len() != 1 {
				t.Fatalf("cache holds %d entries, want the waiter's baseline", c.len())
			}
		})
	}
}

var errBoom = errors.New("boom")
