package spart

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/trace"
)

func smallCfg() config.GPU {
	cfg := config.Base()
	cfg.NumSMs = 8
	return cfg
}

func smallProfile(name string) kern.Profile {
	return kern.Profile{
		Name: name, Class: kern.ClassCompute,
		BodyInstrs: 12, Iterations: 20,
		FracGlobalMem: 0.1, FracStore: 0.2,
		DepDensity:     0.2,
		CoalesceDegree: 1.5, ReuseFrac: 0.5,
		HotBytes: 4 << 10, FootprintBytes: 1 << 20,
		ThreadsPerTB: 64, RegsPerThread: 16, GridTBs: 96,
	}
}

func newGPU(t *testing.T, names ...string) *gpu.GPU {
	t.Helper()
	kernels := make([]*kern.Kernel, len(names))
	for i, n := range names {
		k, err := kern.Build(i, smallProfile(n), 23, nil)
		if err != nil {
			t.Fatal(err)
		}
		kernels[i] = k
	}
	g, err := gpu.New(smallCfg(), kernels)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := newGPU(t, "a", "b")
	if _, err := New(g, []float64{100}, nil, nil); err == nil {
		t.Fatal("accepted wrong goals length")
	}
	if _, err := New(g, []float64{0, 0}, nil, nil); err == nil {
		t.Fatal("accepted no QoS kernel")
	}
	if _, err := New(g, []float64{100, 0}, []float64{1}, nil); err == nil {
		t.Fatal("accepted mismatched isolated slice")
	}
}

func TestInstallPartitionsEverySM(t *testing.T) {
	g := newGPU(t, "a", "b")
	c, err := New(g, []float64{100, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Install()
	owned := 0
	for slot := 0; slot < 2; slot++ {
		owned += c.SMsOf(slot)
	}
	if owned != g.Cfg.NumSMs {
		t.Fatalf("%d SMs owned, want %d", owned, g.Cfg.NumSMs)
	}
	// Each SM belongs to exactly one kernel's mask.
	for i := 0; i < g.Cfg.NumSMs; i++ {
		owners := 0
		for slot := 0; slot < 2; slot++ {
			if g.Allowed(slot, i) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("SM %d has %d owners", i, owners)
		}
	}
}

func TestSeededPartitionProportionalToGoal(t *testing.T) {
	g := newGPU(t, "a", "b")
	// Goal is 75% of isolated: the QoS kernel should start with about
	// three quarters of the SMs.
	c, _ := New(g, []float64{75, 0}, []float64{100, 100}, nil)
	c.Install()
	if got := c.SMsOf(0); got != 6 {
		t.Fatalf("QoS kernel seeded with %d of 8 SMs, want 6", got)
	}
	if c.SMsOf(1) != 2 {
		t.Fatalf("non-QoS kernel got %d SMs", c.SMsOf(1))
	}
}

func TestEveryKernelKeepsOneSM(t *testing.T) {
	g := newGPU(t, "a", "b")
	c, _ := New(g, []float64{1e9, 0}, []float64{1, 1}, nil) // absurd goal
	c.Install()
	if c.SMsOf(1) < 1 {
		t.Fatal("non-QoS kernel left without any SM")
	}
	g.RunCtx(context.Background(), 100_000)
	if c.SMsOf(1) < 1 {
		t.Fatal("hill climbing starved the non-QoS kernel of its last SM")
	}
}

func TestHillClimbMovesTowardNeedyKernel(t *testing.T) {
	g := newGPU(t, "a", "b")
	iso := isolated(t)
	// Equal split but a high goal: the controller must take SMs from
	// the non-QoS kernel.
	c, _ := New(g, []float64{0.9 * iso, 0}, nil, nil)
	tr := trace.New(trace.DefaultRingSize)
	g.SetTracer(tr)
	c.Install()
	start := c.SMsOf(0)
	g.RunCtx(context.Background(), 120_000)
	moves := movesTo(t, tr, 0)
	if c.SMsOf(0) <= start {
		t.Fatalf("needy QoS kernel still at %d SMs (started with %d), moves=%d",
			c.SMsOf(0), start, moves)
	}
	if moves == 0 {
		t.Fatal("no hill-climbing moves traced")
	}
}

// movesTo counts tr's sm_move events that hand an SM to slot; the ring
// must have kept them all.
func movesTo(t *testing.T, tr *trace.Tracer, slot int) int {
	t.Helper()
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; the count would be short", tr.Dropped())
	}
	n := 0
	tr.Each(func(e trace.Event) bool {
		if e.Kind == trace.KindSMMove && int(e.Slot) == slot {
			n++
		}
		return true
	})
	return n
}

func isolated(t *testing.T) float64 {
	g := newGPU(t, "solo")
	g.RunCtx(context.Background(), 60_000)
	return g.IPC(0)
}

func TestGiveBackWhenOverProvisioned(t *testing.T) {
	g := newGPU(t, "a", "b")
	iso := isolated(t)
	// Tiny goal with a fat seeded partition: SMs must flow back to the
	// non-QoS kernel.
	c, _ := New(g, []float64{0.1 * iso, 0}, []float64{iso, iso}, nil)
	// Manually seed the QoS kernel too large to force give-backs.
	for i := range c.owner {
		if i < 6 {
			c.owner[i] = 0
		} else {
			c.owner[i] = 1
		}
	}
	c.applyMasks()
	g.SetController(c)
	tr := trace.New(trace.DefaultRingSize)
	g.SetTracer(tr)
	g.RunCtx(context.Background(), 120_000)
	if movesTo(t, tr, 1) == 0 {
		t.Fatal("controller never returned surplus SMs")
	}
	if c.SMsOf(1) <= 2 {
		t.Fatalf("non-QoS kernel still at %d SMs", c.SMsOf(1))
	}
}

func TestOwnershipConsistentAfterRun(t *testing.T) {
	g := newGPU(t, "a", "b")
	iso := isolated(t)
	c, _ := New(g, []float64{0.6 * iso, 0}, []float64{iso, iso}, nil)
	c.Install()
	g.RunCtx(context.Background(), 100_000)
	for i := 0; i < g.Cfg.NumSMs; i++ {
		owner := c.Owner(i)
		for slot := 0; slot < 2; slot++ {
			if g.Allowed(slot, i) != (slot == owner) {
				t.Fatalf("mask of SM %d inconsistent with owner %d", i, owner)
			}
		}
		// No foreign TBs resident.
		for slot := 0; slot < 2; slot++ {
			if slot != owner && g.SMs[i].ResidentTBs(slot) > 0 {
				t.Fatalf("SM %d hosts TBs of non-owner %d", i, slot)
			}
		}
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestTooManyKernelsRejected(t *testing.T) {
	cfg := config.Base()
	cfg.NumSMs = 1
	k0, _ := kern.Build(0, smallProfile("a"), 1, nil)
	k1, _ := kern.Build(1, smallProfile("b"), 1, nil)
	g, err := gpu.New(cfg, []*kern.Kernel{k0, k1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, []float64{10, 0}, nil, nil); err == nil {
		t.Fatal("accepted more kernels than SMs")
	}
}
