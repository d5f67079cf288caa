package gpu

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRunCtxPreExpiredDeadline(t *testing.T) {
	g, err := New(smallCfg(), buildKernels(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := g.RunCtx(ctx, 50_000); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if g.Now != 0 {
		t.Fatalf("simulated %d cycles under an expired deadline", g.Now)
	}
}

// TestRunCtxDeadlineReapsMidEpoch cancels a deadlined run from inside the
// simulation, at a fixed cycle in the middle of the first epoch, and
// expects RunCtx to bail out at the next idle-warp sample boundary: with
// a deadline present the context is polled there, not just at epoch
// rollover.
func TestRunCtxDeadlineReapsMidEpoch(t *testing.T) {
	cfg := smallCfg()
	g, err := New(cfg, buildKernels(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	const cancelAt = 1_234
	g.SetController(&scriptedController{g: g, events: []int64{cancelAt},
		act: func(*GPU, int64, int) { cancel() }})
	const window = 500_000_000
	err = g.RunCtx(ctx, window)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	sampleEvery := cfg.EpochLength / int64(cfg.IdleWarpSamples)
	want := (cancelAt/sampleEvery + 1) * sampleEvery
	if g.Now != want || want >= cfg.EpochLength {
		t.Fatalf("run stopped at cycle %d, want the sample boundary %d after the cancel at %d (epoch ends at %d)",
			g.Now, want, cancelAt, cfg.EpochLength)
	}
}
