package preempt

import (
	"testing"

	"repro/internal/config"
)

func TestMoveCost(t *testing.T) {
	e := New(config.Base(), nil)
	if got := e.MoveCost(0); got != 0 {
		t.Fatalf("MoveCost(0) = %d", got)
	}
	bw := config.Base().CtxSaveBWBytes
	if got := e.MoveCost(bw); got != 1 {
		t.Fatalf("MoveCost(one bandwidth unit) = %d, want 1", got)
	}
	if got := e.MoveCost(bw*3 + 1); got != 4 {
		t.Fatalf("MoveCost rounds up: got %d, want 4", got)
	}
}

func TestDisabledEngineIsFree(t *testing.T) {
	e := New(config.Base(), nil)
	e.Enabled = false
	if e.MoveCost(1<<20) != 0 {
		t.Fatal("disabled engine charges for moves")
	}
	done := e.BeginDrain(100, 0, 1<<20)
	if done != 100 {
		t.Fatalf("disabled drain finished at %d, want 100", done)
	}
}

func TestSwapSerializesPerSM(t *testing.T) {
	e := New(config.Base(), nil)
	d1 := e.BeginSwap(0, 0, 1024)
	d2 := e.BeginSwap(0, 0, 1024)
	if d2 <= d1 {
		t.Fatal("second swap on the same SM did not queue behind the first")
	}
	// A different SM's lane is independent.
	d3 := e.BeginSwap(0, 1, 1024)
	if d3 != d1 {
		t.Fatalf("independent SM swap finished at %d, want %d", d3, d1)
	}
}

func TestDrainIncludesPenalty(t *testing.T) {
	cfg := config.Base()
	e := New(cfg, nil)
	done := e.BeginDrain(0, 0, 0)
	if done != cfg.SMDrainPenalty {
		t.Fatalf("drain with no context finished at %d, want %d", done, cfg.SMDrainPenalty)
	}
}

func TestPending(t *testing.T) {
	e := New(config.Base(), nil)
	if e.Pending(0) {
		t.Fatal("fresh engine reports pending work")
	}
	done := e.BeginSwap(0, 3, 4096)
	if !e.Pending(done - 1) {
		t.Fatal("in-flight swap not pending")
	}
	if e.Pending(done) {
		t.Fatal("finished swap still pending")
	}
	if e.BusyUntil(3) != done {
		t.Fatal("BusyUntil mismatch")
	}
}

func TestStats(t *testing.T) {
	e := New(config.Base(), nil)
	e.BeginSwap(0, 0, 1000)
	e.BeginDrain(0, 1, 2000)
	if e.Stats.Swaps != 1 || e.Stats.SMDrains != 1 {
		t.Fatalf("stats = %+v", e.Stats)
	}
	if e.Stats.BytesMoved != 3000 {
		t.Fatalf("bytes moved = %d", e.Stats.BytesMoved)
	}
	if e.Stats.BusyCycles <= 0 {
		t.Fatal("busy cycles not accumulated")
	}
}
