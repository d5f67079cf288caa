package gpu

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/kern"
	"repro/internal/trace"
)

// smallCfg is a 4-SM device for fast whole-GPU tests.
func smallCfg() config.GPU {
	cfg := config.Base()
	cfg.NumSMs = 4
	return cfg
}

func smallProfile(name string) kern.Profile {
	return kern.Profile{
		Name: name, Class: kern.ClassCompute,
		BodyInstrs: 12, Iterations: 10,
		FracGlobalMem: 0.1, FracStore: 0.2,
		DepDensity:     0.2,
		CoalesceDegree: 1.5, ReuseFrac: 0.5,
		HotBytes: 4 << 10, FootprintBytes: 1 << 20,
		ThreadsPerTB: 64, RegsPerThread: 16, GridTBs: 24,
	}
}

func buildKernels(t *testing.T, names ...string) []*kern.Kernel {
	t.Helper()
	out := make([]*kern.Kernel, len(names))
	for i, n := range names {
		k, err := kern.Build(i, smallProfile(n), 13, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = k
	}
	return out
}

func TestNewValidates(t *testing.T) {
	if _, err := New(smallCfg(), nil); err == nil {
		t.Fatal("New accepted zero kernels")
	}
	bad := smallCfg()
	bad.NumSMs = 0
	if _, err := New(bad, buildKernels(t, "a")); err == nil {
		t.Fatal("New accepted invalid config")
	}
	// An SM tags each in-flight transaction with its kernel slot in 8 bits
	// (tag 0 is a load miss): 255 slots fit, 256 do not.
	many := make([]*kern.Kernel, 256)
	for i, k := 0, buildKernels(t, "a")[0]; i < len(many); i++ {
		many[i] = k
	}
	if _, err := New(smallCfg(), many[:255]); err != nil {
		t.Fatalf("New rejected 255 kernels: %v", err)
	}
	if _, err := New(smallCfg(), many); err == nil {
		t.Fatal("New accepted more kernels than a completion tag can name")
	}
}

func TestIsolatedRunProgress(t *testing.T) {
	g, err := New(smallCfg(), buildKernels(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	g.RunCtx(context.Background(), 5_000)
	if g.IPC(0) <= 0 {
		t.Fatal("no progress in isolated run")
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		g, _ := New(smallCfg(), buildKernels(t, "a", "b"))
		g.RunCtx(context.Background(), 20_000)
		return g.Stats[0].ThreadInstrs, g.Stats[1].ThreadInstrs
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestIPCBoundedByPeak(t *testing.T) {
	cfg := smallCfg()
	g, _ := New(cfg, buildKernels(t, "a"))
	g.RunCtx(context.Background(), 10_000)
	peak := float64(cfg.PeakIssuePerCycle() * cfg.WarpSize)
	if g.IPC(0) > peak {
		t.Fatalf("IPC %v exceeds architectural peak %v", g.IPC(0), peak)
	}
}

func TestKernelRelaunch(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	g.RunCtx(context.Background(), 200_000)
	if g.Stats[0].Launches < 2 {
		t.Fatalf("kernel never relaunched (launches = %d)", g.Stats[0].Launches)
	}
	if g.Stats[0].TBsCompleted < int64(g.Kernels[0].Profile.GridTBs) {
		t.Fatal("first launch never drained")
	}
}

func TestMaskRestrictsPlacement(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a", "b"))
	g.SetMask(0, []bool{true, true, false, false})
	g.SetMask(1, []bool{false, false, true, true})
	// Check placement every cycle: TBs of a kernel must never appear
	// outside its mask, including across relaunches.
	for i := 0; i < 40; i++ {
		g.RunCtx(context.Background(), 50)
		if g.SMs[2].ResidentTBs(0)+g.SMs[3].ResidentTBs(0) != 0 {
			t.Fatal("kernel 0 placed outside its mask")
		}
		if g.SMs[0].ResidentTBs(1)+g.SMs[1].ResidentTBs(1) != 0 {
			t.Fatal("kernel 1 placed outside its mask")
		}
	}
	if g.Stats[0].ThreadInstrs == 0 || g.Stats[1].ThreadInstrs == 0 {
		t.Fatal("masked kernels made no progress")
	}
}

func TestBalancedDispatch(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	g.RunCtx(context.Background(), 100)
	min, max := 1<<30, 0
	for _, s := range g.SMs {
		n := s.ResidentTBs(0)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced dispatch: min %d max %d TBs per SM", min, max)
	}
}

// TestPreemptOneTBAndResume preempts one TB and runs on: the trace must
// record the save with the kernel's context bytes, and its restore.
func TestPreemptOneTBAndResume(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a", "b"))
	tr := trace.New(trace.DefaultRingSize)
	g.SetTracer(tr)
	g.RunCtx(context.Background(), 500)
	before := g.SMs[0].ResidentTBs(0)
	if before == 0 {
		t.Skip("no TBs of kernel 0 on SM0")
	}
	if !g.PreemptOneTB(500, 0, 0) {
		t.Fatal("PreemptOneTB failed")
	}
	if g.SMs[0].ResidentTBs(0) != before-1 {
		t.Fatal("TB count unchanged after preemption")
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	// The saved context resumes and the kernel still completes its grid.
	g.RunCtx(context.Background(), 300_000)
	if g.Stats[0].Launches < 2 {
		t.Fatal("kernel with preempted TB never completed a launch")
	}
	saves, ctxBytes := events(t, tr, trace.KindTBPreempt), g.Kernels[0].TBResources().CtxBytes
	if len(saves) != 1 || saves[0].SM != 0 || saves[0].Slot != 0 || int(saves[0].B) != ctxBytes {
		t.Fatalf("tb_preempt events %+v, want one of slot 0 on SM 0 moving %d bytes", saves, ctxBytes)
	}
	if restores := events(t, tr, trace.KindTBRestore); len(restores) != 1 || restores[0].A != saves[0].A {
		t.Fatalf("tb_restore events %+v, want one of grid index %v", restores, saves[0].A)
	}
}

// TestDrainSM drains an SM: it empties and stays blocked for the move of
// every context the sm_drain event reports plus the drain penalty.
func TestDrainSM(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	tr := trace.New(trace.DefaultRingSize)
	g.SetTracer(tr)
	g.RunCtx(context.Background(), 100)
	held := g.SMs[1].ResidentTBs(0)
	if held == 0 {
		t.Fatal("no TB of kernel 0 on SM 1 to drain")
	}
	g.DrainSM(100, 1)
	if g.SMs[1].ResidentTBs(0) != 0 {
		t.Fatal("SM not empty after drain")
	}
	drains := events(t, tr, trace.KindSMDrain)
	bytes := held * g.Kernels[0].TBResources().CtxBytes
	if len(drains) != 1 || drains[0].SM != 1 || int(drains[0].A) != held || int(drains[0].B) != bytes {
		t.Fatalf("sm_drain events %+v, want one on SM 1 of %d TBs and %d bytes", drains, held, bytes)
	}
	if want := 100 + g.Engine.MoveCost(bytes) + g.Cfg.SMDrainPenalty; g.SMs[1].BlockedUntil != want {
		t.Fatalf("drained SM blocked until %d, want %d", g.SMs[1].BlockedUntil, want)
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestIdleWarpAveragesReset(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	g.RunCtx(context.Background(), 12_000)
	first := g.IdleWarpAverages()
	if len(first) != 4 {
		t.Fatalf("averages for %d SMs", len(first))
	}
	second := g.IdleWarpAverages()
	for i := range second {
		for j := range second[i] {
			if second[i][j] != 0 {
				t.Fatal("accumulators not reset after read")
			}
		}
	}
}

// TestRebuildClearsIdleWarpSamples: a rebuilt device samples idle warps
// from zero. The first run leaves its accumulators full (without the
// static adjuster nothing reads them), and the rebuilt device's averages
// after a run must equal a fresh device's after the same run.
func TestRebuildClearsIdleWarpSamples(t *testing.T) {
	ctx := context.Background()
	g, _ := New(smallCfg(), buildKernels(t, "a", "b"))
	g.RunCtx(ctx, 12_000)
	if !slices.ContainsFunc(g.idleAcc, func(acc []int64) bool { return slices.ContainsFunc(acc, func(v int64) bool { return v > 0 }) }) {
		t.Fatal("the first run sampled no idle warp: nothing is left over for a rebuild to clear")
	}
	rebuilt, err := Rebuild(g, smallCfg(), buildKernels(t, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(smallCfg(), buildKernels(t, "a", "b"))
	rebuilt.RunCtx(ctx, 5_000)
	fresh.RunCtx(ctx, 5_000)
	if got, want := rebuilt.IdleWarpAverages(), fresh.IdleWarpAverages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt device's idle-warp averages %v, a fresh device's %v", got, want)
	}
}

func TestControllerHooksFire(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	c := &countingController{}
	g.SetController(c)
	g.RunCtx(context.Background(), 25_000)
	if c.cycles == 0 {
		t.Fatal("OnCycle never fired")
	}
	if c.epochs != 2 {
		t.Fatalf("OnEpoch fired %d times in 25K cycles, want 2", c.epochs)
	}
}

type countingController struct {
	cycles int64
	epochs int
}

func (c *countingController) OnCycle(now int64) { c.cycles++ }
func (c *countingController) OnEpoch(now int64) { c.epochs++ }

// NextControlEvent claims every cycle, so the wheel never skips one.
func (c *countingController) NextControlEvent(now int64) int64 { return now }

// TestEpochRecorder checks the trace's epoch_roll events, the device's
// one record of an epoch: one per roll, each carrying the epoch's work.
func TestEpochRecorder(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	tr := trace.New(trace.DefaultRingSize)
	g.SetTracer(tr)
	g.RunCtx(context.Background(), 35_000)
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped())
	}
	rolls, instrs := 0, 0.0
	for _, e := range tr.Events() {
		if e.Kind == trace.KindEpochRoll && e.Slot == 0 {
			rolls++
			instrs += e.A
		}
	}
	if rolls != 3 {
		t.Fatalf("%d epoch rolls in 35K cycles, want 3", rolls)
	}
	if instrs <= 0 {
		t.Fatal("epoch rolls carry no work")
	}
}

func TestRunIsResumable(t *testing.T) {
	g1, _ := New(smallCfg(), buildKernels(t, "a"))
	g1.RunCtx(context.Background(), 10_000)
	g1.RunCtx(context.Background(), 10_000)
	g2, _ := New(smallCfg(), buildKernels(t, "a"))
	g2.RunCtx(context.Background(), 20_000)
	if g1.Stats[0].ThreadInstrs != g2.Stats[0].ThreadInstrs {
		t.Fatal("split Run differs from a single Run of the same length")
	}
}

func TestTotalThreadInstrs(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a", "b"))
	g.RunCtx(context.Background(), 10_000)
	if g.TotalThreadInstrs() != g.Stats[0].ThreadInstrs+g.Stats[1].ThreadInstrs {
		t.Fatal("TotalThreadInstrs does not sum per-kernel counters")
	}
}

// events returns tr's events of one kind; the ring must have kept them
// all.
func events(t *testing.T, tr *trace.Tracer, kind trace.Kind) []trace.Event {
	t.Helper()
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped())
	}
	var out []trace.Event
	tr.Each(func(e trace.Event) bool {
		if e.Kind == kind {
			out = append(out, e)
		}
		return true
	})
	return out
}
