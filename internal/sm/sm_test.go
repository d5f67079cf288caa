package sm

import (
	"testing"

	"repro/internal/config"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// tinyCfg shrinks the device so single-SM tests stay fast.
func tinyCfg() config.GPU {
	cfg := config.Base()
	cfg.NumSMs = 1
	return cfg
}

// computeProfile is an ALU-only kernel: no memory, no barriers, so its
// execution time is a pure function of issue bandwidth and latencies.
func computeProfile() kern.Profile {
	return kern.Profile{
		Name: "alu", Class: kern.ClassCompute,
		BodyInstrs: 16, Iterations: 4,
		DepDensity:     0,
		CoalesceDegree: 1, ReuseFrac: 0,
		HotBytes: 1 << 10, FootprintBytes: 1 << 20,
		ThreadsPerTB: 64, RegsPerThread: 16, SharedMemPerTB: 0, GridTBs: 4,
	}
}

func memProfile() kern.Profile {
	p := computeProfile()
	p.Name = "mem"
	p.Class = kern.ClassMemory
	p.FracGlobalMem = 0.5
	p.FracStore = 0.2
	p.ReuseFrac = 0
	return p
}

func barrierProfile() kern.Profile {
	p := computeProfile()
	p.Name = "barrier"
	p.BarrierEvery = 8
	return p
}

func newSM(t *testing.T, cfg config.GPU, profiles ...kern.Profile) (*SM, []*kern.Kernel, []*metrics.KernelStats) {
	t.Helper()
	kernels := make([]*kern.Kernel, len(profiles))
	stats := make([]*metrics.KernelStats, len(profiles))
	for i, p := range profiles {
		k, err := kern.Build(i, p, 42)
		if err != nil {
			t.Fatal(err)
		}
		kernels[i] = k
		stats[i] = &metrics.KernelStats{}
	}
	progs, err := Decode(cfg, kernels)
	if err != nil {
		t.Fatal(err)
	}
	return New(0, cfg, mem.New(cfg, nil), progs, stats, nil), kernels, stats
}

func runSM(s *SM, from, to int64) {
	for now := from; now < to; now++ {
		s.Cycle(now)
	}
}

func TestDispatchAccounting(t *testing.T) {
	s, ks, _ := newSM(t, tinyCfg(), computeProfile())
	r := ks[0].TBResources()
	tb := s.Dispatch(0, 0, 0, nil)
	if tb == nil || tb.LiveWarps != 2 {
		t.Fatalf("dispatched TB has %d live warps, want 2", tb.LiveWarps)
	}
	if s.UsedThreads() != r.Threads || s.ResidentTBs(0) != 1 {
		t.Fatal("resource accounting wrong after dispatch")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestFreeForHonoursResources(t *testing.T) {
	cfg := tinyCfg()
	s, _, _ := newSM(t, cfg, computeProfile())
	n := 0
	for s.FreeFor(0) {
		s.Dispatch(0, 0, n, nil)
		n++
		if n > 100 {
			t.Fatal("FreeFor never became false")
		}
	}
	// 64-thread TBs on a 2048-thread SM, 16 regs/thread on 256KB: the
	// thread limit binds first at 32 TB slots.
	if n != cfg.MaxTBsPerSM {
		t.Fatalf("admitted %d TBs, want %d (TB-slot limited)", n, cfg.MaxTBsPerSM)
	}
}

func TestFreeForHonoursCap(t *testing.T) {
	s, _, _ := newSM(t, tinyCfg(), computeProfile())
	s.SetTBCap(0, 2)
	s.Dispatch(0, 0, 0, nil)
	s.Dispatch(0, 0, 1, nil)
	if s.FreeFor(0) {
		t.Fatal("FreeFor ignores the TB cap")
	}
	if !s.RoomWithoutCap(0) {
		t.Fatal("RoomWithoutCap should ignore the cap")
	}
}

func TestKernelRunsToCompletion(t *testing.T) {
	s, ks, stats := newSM(t, tinyCfg(), computeProfile())
	completed := 0
	s.OnTBComplete = func(smID, slot int) { completed++ }
	for i := 0; i < 4; i++ {
		s.Dispatch(0, 0, i, nil)
	}
	runSM(s, 0, 20_000)
	if completed != 4 {
		t.Fatalf("%d TBs completed, want 4", completed)
	}
	// Phases alternate between two bodies of equal length, so Body's
	// length is exact per iteration.
	wantInstrs := int64(len(ks[0].Body)) * int64(ks[0].Profile.Iterations) * int64(ks[0].Profile.ThreadsPerTB) * 4
	if stats[0].ThreadInstrs != wantInstrs {
		t.Fatalf("executed %d thread instrs, want %d", stats[0].ThreadInstrs, wantInstrs)
	}
	if s.ResidentTBs(0) != 0 || s.UsedThreads() != 0 {
		t.Fatal("resources not released after completion")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestBarrierKernelCompletes(t *testing.T) {
	s, _, stats := newSM(t, tinyCfg(), barrierProfile())
	done := 0
	s.OnTBComplete = func(int, int) { done++ }
	s.Dispatch(0, 0, 0, nil)
	runSM(s, 0, 50_000)
	if done != 1 {
		t.Fatalf("barrier kernel did not finish (%d barriers executed)", stats[0].Barriers)
	}
	if stats[0].Barriers == 0 {
		t.Fatal("no barriers executed")
	}
}

func TestMemKernelCompletes(t *testing.T) {
	s, _, stats := newSM(t, tinyCfg(), memProfile())
	done := 0
	s.OnTBComplete = func(int, int) { done++ }
	s.Dispatch(0, 0, 0, nil)
	runSM(s, 0, 200_000)
	if done != 1 {
		t.Fatal("memory kernel did not finish")
	}
	if stats[0].MemTxns == 0 || stats[0].L1Accesses == 0 {
		t.Fatalf("memory counters empty: %+v", stats[0])
	}
	if s.Outstanding() != 0 {
		t.Fatal("MSHRs leaked after completion")
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() int64 {
		s, _, stats := newSM(t, tinyCfg(), memProfile(), barrierProfile())
		s.Dispatch(0, 0, 0, nil)
		s.Dispatch(0, 1, 0, nil)
		runSM(s, 0, 30_000)
		return stats[0].ThreadInstrs*1_000_003 + stats[1].ThreadInstrs
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

func TestIssueBoundedBySchedulers(t *testing.T) {
	cfg := tinyCfg()
	s, _, stats := newSM(t, cfg, computeProfile())
	for i := 0; i < 4; i++ {
		s.Dispatch(0, 0, i, nil)
	}
	const cycles = 5_000
	runSM(s, 0, cycles)
	if stats[0].WarpInstrs > int64(cycles*cfg.WarpSchedulers) {
		t.Fatalf("issued %d warp instrs in %d cycles with %d schedulers",
			stats[0].WarpInstrs, cycles, cfg.WarpSchedulers)
	}
}

func TestQuotaGateThrottles(t *testing.T) {
	s, _, stats := newSM(t, tinyCfg(), computeProfile())
	gate := &fixedGate{allow: false}
	s.SetGate(gate)
	s.Dispatch(0, 0, 0, nil)
	runSM(s, 0, 2_000)
	if stats[0].ThreadInstrs != 0 {
		t.Fatal("gated kernel executed instructions")
	}
	// Throttle accounting is settled lazily: one stepped cycle and 1 999
	// idle skips are still pending until someone asks.
	s.SettleIdle()
	if stats[0].ThrottledCycles != 2_000 {
		t.Fatalf("ThrottledCycles = %d after 2000 gated cycles", stats[0].ThrottledCycles)
	}
	gate.allow = true
	s.Wake(2_000)
	runSM(s, 2_000, 4_000)
	if stats[0].ThreadInstrs == 0 {
		t.Fatal("kernel did not resume after the gate opened")
	}
	if gate.issued == 0 {
		t.Fatal("OnIssue not called")
	}
}

// fixedGate is a QuotaGate with a global switch.
type fixedGate struct {
	allow  bool
	issued int64
}

func (g *fixedGate) CanIssue(smID, slot int) bool { return g.allow }
func (g *fixedGate) OnIssue(smID, slot, n int)    { g.issued += int64(n) }

func TestPreemptAndResumeSameWork(t *testing.T) {
	total := func(preempt bool) int64 {
		p := barrierProfile()
		p.Iterations = 64 // long enough to still be running at preemption
		s, _, stats := newSM(t, tinyCfg(), p)
		s.Dispatch(0, 0, 0, nil)
		runSM(s, 0, 300)
		if preempt {
			ctx, bytes, ok := s.PreemptTB(300, 0)
			if !ok || bytes <= 0 {
				t.Fatal("preemption failed")
			}
			if s.ResidentTBs(0) != 0 {
				t.Fatal("TB still resident after preemption")
			}
			if msg := s.CheckInvariants(); msg != "" {
				t.Fatal(msg)
			}
			tb := s.Dispatch(400, 0, ctx.GridIdx, ctx)
			if tb.LiveWarps == 0 {
				t.Fatal("resumed TB has no live warps")
			}
		}
		runSM(s, 400, 60_000)
		return stats[0].ThreadInstrs
	}
	if total(true) != total(false) {
		t.Fatal("preempt+resume changed the total work executed")
	}
}

func TestPreemptMidBarrier(t *testing.T) {
	s, _, _ := newSM(t, tinyCfg(), barrierProfile())
	s.Dispatch(0, 0, 0, nil)
	// Find a moment when some warp waits at a barrier, then preempt.
	preempted := false
	for now := int64(0); now < 5_000 && !preempted; now++ {
		s.Cycle(now)
		if len(s.tbs) > 0 && s.tbs[0].BarrierWait > 0 {
			ctx, _, ok := s.PreemptTB(now, 0)
			if !ok {
				t.Fatal("preempt failed mid-barrier")
			}
			var bar int32
			for _, w := range ctx.Warps {
				if w.AtBarrier {
					bar++
				}
			}
			if bar == 0 {
				t.Fatal("saved context lost barrier state")
			}
			tb := s.Dispatch(now+10, 0, ctx.GridIdx, ctx)
			if tb.BarrierWait != bar {
				t.Fatalf("restored BarrierWait = %d, want %d", tb.BarrierWait, bar)
			}
			preempted = true
		}
	}
	if !preempted {
		t.Skip("no barrier wait observed in window")
	}
	done := 0
	s.OnTBComplete = func(int, int) { done++ }
	runSM(s, 5_010, 80_000)
	if done != 1 {
		t.Fatal("TB resumed mid-barrier never completed")
	}
}

func TestPreemptEmptyKernel(t *testing.T) {
	s, _, _ := newSM(t, tinyCfg(), computeProfile())
	if _, _, ok := s.PreemptTB(0, 0); ok {
		t.Fatal("preempted a TB from an empty kernel")
	}
}

func TestDrainAll(t *testing.T) {
	s, _, _ := newSM(t, tinyCfg(), computeProfile(), memProfile())
	s.Dispatch(0, 0, 0, nil)
	s.Dispatch(0, 0, 1, nil)
	s.Dispatch(0, 1, 0, nil)
	ctxs, bytes := s.DrainAll(10)
	if len(ctxs) != 3 || bytes <= 0 {
		t.Fatalf("drained %d contexts (%d bytes), want 3", len(ctxs), bytes)
	}
	if s.ResidentTBs(0)+s.ResidentTBs(1) != 0 {
		t.Fatal("TBs remain after DrainAll")
	}
}

func TestDeferTB(t *testing.T) {
	s, _, stats := newSM(t, tinyCfg(), computeProfile())
	tb := s.Dispatch(0, 0, 0, nil)
	s.DeferTB(tb, 1_000)
	runSM(s, 0, 999)
	if stats[0].ThreadInstrs != 0 {
		t.Fatal("deferred TB executed before its start time")
	}
	runSM(s, 999, 3_000)
	if stats[0].ThreadInstrs == 0 {
		t.Fatal("deferred TB never started")
	}
}

func TestSampleIdleWarpsExcess(t *testing.T) {
	s, _, _ := newSM(t, tinyCfg(), computeProfile())
	for i := 0; i < 8; i++ {
		s.Dispatch(0, 0, i, nil)
	}
	// At time 0 every warp is ready; with 4 schedulers the excess is
	// 16 warps - 4 slots = 12.
	out := make([]int64, 1)
	s.SampleIdleWarps(0, out)
	if out[0] != 12 {
		t.Fatalf("idle warps = %d, want 12", out[0])
	}
}

func TestBlockedSMDoesNothing(t *testing.T) {
	s, _, stats := newSM(t, tinyCfg(), computeProfile())
	s.Dispatch(0, 0, 0, nil)
	s.BlockedUntil = 500
	runSM(s, 0, 500)
	if stats[0].ThreadInstrs != 0 {
		t.Fatal("blocked SM issued instructions")
	}
	runSM(s, 500, 2_000)
	if stats[0].ThreadInstrs == 0 {
		t.Fatal("SM never resumed after BlockedUntil")
	}
}

func TestHeapOrdering(t *testing.T) {
	var h []int64
	in := []int64{5, 3, 9, 1, 7, 1, 8, 2}
	for _, v := range in {
		pushHeap(&h, v)
	}
	prev := int64(-1 << 62)
	for len(h) > 0 {
		if h[0] < prev {
			t.Fatalf("heap order violated: %d after %d", h[0], prev)
		}
		prev = h[0]
		popHeap(&h)
	}
}

func TestMSHRBound(t *testing.T) {
	cfg := tinyCfg()
	cfg.MSHRsPerSM = 4
	p := memProfile()
	p.FracStore = 0 // loads only
	p.GridTBs = 8
	s, _, _ := newSM(t, cfg, p)
	for i := 0; i < 8; i++ {
		s.Dispatch(0, 0, i, nil)
	}
	for now := int64(0); now < 5_000; now++ {
		s.Cycle(now)
		if s.Outstanding() > cfg.MSHRsPerSM {
			t.Fatalf("outstanding misses %d exceed MSHR cap %d", s.Outstanding(), cfg.MSHRsPerSM)
		}
	}
}
