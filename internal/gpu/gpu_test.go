package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/kern"
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
		k, err := kern.Build(i, smallProfile(n), 13)
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
	g.Run(5_000)
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
		g.Run(20_000)
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
	g.Run(10_000)
	peak := float64(cfg.PeakIssuePerCycle() * cfg.WarpSize)
	if g.IPC(0) > peak {
		t.Fatalf("IPC %v exceeds architectural peak %v", g.IPC(0), peak)
	}
}

func TestKernelRelaunch(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	g.Run(200_000)
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
		g.Run(50)
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
	g.Run(100)
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

func TestPreemptOneTBAndResume(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a", "b"))
	g.Run(500)
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
	g.Run(300_000)
	if g.Stats[0].Launches < 2 {
		t.Fatal("kernel with preempted TB never completed a launch")
	}
}

func TestDrainSM(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	g.Run(500)
	g.DrainSM(500, 1)
	if g.SMs[1].ResidentTBs(0) != 0 {
		t.Fatal("SM not empty after drain")
	}
	if g.SMs[1].BlockedUntil <= 500 {
		t.Fatal("drained SM not blocked")
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestIdleWarpAveragesReset(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	g.Run(12_000)
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

func TestControllerHooksFire(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	c := &countingController{}
	g.SetController(c)
	g.Run(25_000)
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

func TestEpochRecorder(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a"))
	g.Run(35_000)
	if len(g.Rec.ByKernel[0]) != 3 {
		t.Fatalf("%d epoch records in 35K cycles, want 3", len(g.Rec.ByKernel[0]))
	}
	if g.Rec.MeanEpochInstrs(0) <= 0 {
		t.Fatal("epoch records carry no work")
	}
}

func TestRunIsResumable(t *testing.T) {
	g1, _ := New(smallCfg(), buildKernels(t, "a"))
	g1.Run(10_000)
	g1.Run(10_000)
	g2, _ := New(smallCfg(), buildKernels(t, "a"))
	g2.Run(20_000)
	if g1.Stats[0].ThreadInstrs != g2.Stats[0].ThreadInstrs {
		t.Fatal("split Run differs from a single Run of the same length")
	}
}

func TestTotalThreadInstrs(t *testing.T) {
	g, _ := New(smallCfg(), buildKernels(t, "a", "b"))
	g.Run(10_000)
	if g.TotalThreadInstrs() != g.Stats[0].ThreadInstrs+g.Stats[1].ThreadInstrs {
		t.Fatal("TotalThreadInstrs does not sum per-kernel counters")
	}
}
