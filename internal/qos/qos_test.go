package qos

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/trace"
)

func smallCfg() config.GPU {
	cfg := config.Base()
	cfg.NumSMs = 4
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
		ThreadsPerTB: 64, RegsPerThread: 16, GridTBs: 48,
	}
}

func newGPUFromProfiles(t *testing.T, profiles ...kern.Profile) *gpu.GPU {
	t.Helper()
	kernels := make([]*kern.Kernel, len(profiles))
	for i, p := range profiles {
		k, err := kern.Build(i, p, 17, nil)
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

func newGPU(t *testing.T, names ...string) *gpu.GPU {
	t.Helper()
	kernels := make([]*kern.Kernel, len(names))
	for i, n := range names {
		k, err := kern.Build(i, smallProfile(n), 17, nil)
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

// isolatedIPC measures the small profile alone on the small GPU.
func isolatedIPC(t *testing.T, cycles int64) float64 {
	g := newGPU(t, "iso")
	g.RunCtx(context.Background(), cycles)
	return g.IPC(0)
}

func TestNewValidation(t *testing.T) {
	g := newGPU(t, "a", "b")
	if _, err := New(g, Rollover, []float64{100}, Options{}, nil); err == nil {
		t.Fatal("accepted wrong goals length")
	}
	if _, err := New(g, Rollover, []float64{0, 0}, Options{}, nil); err == nil {
		t.Fatal("accepted a run with no QoS kernel")
	}
	if _, err := New(g, Rollover, []float64{-1, 0}, Options{}, nil); err == nil {
		t.Fatal("accepted a negative goal")
	}
	m, err := New(g, Rollover, []float64{50, 0}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.slots[0].isQoS || m.slots[1].isQoS {
		t.Fatal("QoS classification wrong")
	}
	if m.slots[0].goal != 50 || m.slots[1].goal != 0 {
		t.Fatal("goals not retained")
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range []Scheme{Naive, NaiveHistory, Elastic, Rollover, RolloverTime} {
		if s.String() == "" {
			t.Fatalf("scheme %d has empty name", int(s))
		}
	}
	if Naive.historyAdjusted() {
		t.Fatal("Naive must not history-adjust")
	}
	if !Rollover.historyAdjusted() {
		t.Fatal("Rollover must history-adjust")
	}
}

func TestQuotaCountersDecrement(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, Rollover, []float64{100, 0}, Options{}, nil)
	m.Install()
	before := m.CounterFor(0, 0)
	if before <= 0 {
		t.Fatal("no initial quota allocated")
	}
	m.OnIssue(0, 0, 32)
	if got := m.CounterFor(0, 0); got != before-32 {
		t.Fatalf("counter = %v, want %v", got, before-32)
	}
}

func TestCanIssueFollowsCounter(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, Rollover, []float64{100, 0}, Options{}, nil)
	m.Install()
	if !m.CanIssue(0, 0) {
		t.Fatal("QoS kernel blocked with positive counter")
	}
	for m.CounterFor(0, 0) > 0 {
		m.OnIssue(0, 0, 32)
	}
	if m.CanIssue(0, 0) {
		t.Fatal("QoS kernel issuable with exhausted counter")
	}
}

func TestRolloverTimePrioritizesQoS(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, RolloverTime, []float64{100, 0}, Options{}, nil)
	m.Install()
	if m.CanIssue(0, 1) {
		t.Fatal("non-QoS kernel issuable while QoS quota remains under RolloverTime")
	}
	for m.CounterFor(0, 0) > 0 {
		m.OnIssue(0, 0, 32)
	}
	if !m.CanIssue(0, 1) {
		t.Fatal("non-QoS kernel still blocked after QoS quota drained")
	}
}

func TestQoSGoalReached(t *testing.T) {
	iso := isolatedIPC(t, 60_000)
	for _, scheme := range []Scheme{Elastic, Rollover, RolloverTime} {
		g := newGPU(t, "a", "b")
		goals := []float64{0.5 * iso, 0}
		SetupFineGrained(g, goals, []float64{0.5, 0})
		m, _ := New(g, scheme, goals, Options{}, nil)
		m.Install()
		g.RunCtx(context.Background(), 60_000)
		if got := g.IPC(0); got < goals[0]*0.97 {
			t.Errorf("%v: QoS kernel at %.1f, goal %.1f", scheme, got, goals[0])
		}
		if msg := g.CheckInvariants(); msg != "" {
			t.Errorf("%v: %s", scheme, msg)
		}
	}
}

func TestRolloverThrottlesAtGoal(t *testing.T) {
	iso := isolatedIPC(t, 60_000)
	g := newGPU(t, "a", "b")
	goals := []float64{0.4 * iso, 0}
	SetupFineGrained(g, goals, []float64{0.4, 0})
	m, _ := New(g, Rollover, goals, Options{}, nil)
	m.Install()
	g.RunCtx(context.Background(), 60_000)
	// The QoS kernel must not grossly exceed its goal: excess cycles
	// belong to the non-QoS kernel (Figure 9: Rollover ~2.8% over).
	if ratio := g.IPC(0) / goals[0]; ratio > 1.10 {
		t.Fatalf("QoS kernel at %.2fx its goal; quota not throttling", ratio)
	}
	if g.Stats[0].ThrottledCycles == 0 {
		t.Fatal("no throttling recorded for a reachable goal")
	}
}

func TestNonQoSRunsInSlack(t *testing.T) {
	iso := isolatedIPC(t, 60_000)
	g := newGPU(t, "a", "b")
	goals := []float64{0.3 * iso, 0}
	SetupFineGrained(g, goals, []float64{0.3, 0})
	m, _ := New(g, Rollover, goals, Options{}, nil)
	tr := trace.New(trace.DefaultRingSize)
	g.SetTracer(tr)
	m.Install()
	g.RunCtx(context.Background(), 60_000)
	if g.IPC(1) <= 0 {
		t.Fatal("non-QoS kernel made no progress despite slack")
	}
	if countKind(t, tr, trace.KindReplenish) == 0 {
		t.Fatal("slack never replenished the non-QoS kernel")
	}
}

func TestElasticStartsEpochsEarly(t *testing.T) {
	iso := isolatedIPC(t, 40_000)
	g := newGPU(t, "a", "b")
	goals := []float64{0.3 * iso, 0}
	SetupFineGrained(g, goals, []float64{0.3, 0})
	m, _ := New(g, Elastic, goals, Options{}, nil)
	tr := trace.New(trace.DefaultRingSize)
	g.SetTracer(tr)
	m.Install()
	g.RunCtx(context.Background(), 40_000)
	if countKind(t, tr, trace.KindElasticEpoch) == 0 {
		t.Fatal("elastic epoch never restarted early despite an easy goal")
	}
}

// countKind counts tr's events of one kind; the ring must have kept them
// all.
func countKind(t *testing.T, tr *trace.Tracer, kind trace.Kind) int {
	t.Helper()
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; the count would be short", tr.Dropped())
	}
	n := 0
	tr.Each(func(e trace.Event) bool {
		if e.Kind == kind {
			n++
		}
		return true
	})
	return n
}

func TestAlphaRisesWhenBehind(t *testing.T) {
	iso := isolatedIPC(t, 40_000)
	g := newGPU(t, "a", "b")
	// An unreachable goal (1.0x isolated while sharing) keeps the
	// kernel behind, so α must rise above 1.
	goals := []float64{iso, 0}
	SetupFineGrained(g, goals, []float64{0.99, 0})
	m, _ := New(g, Rollover, goals, Options{}, nil)
	m.Install()
	g.RunCtx(context.Background(), 40_000)
	if m.Alpha(0) <= 1 {
		t.Fatalf("α = %v for an unreachable goal, want > 1", m.Alpha(0))
	}
	if m.Alpha(0) > m.opts.AlphaCap {
		t.Fatalf("α = %v exceeds cap %v", m.Alpha(0), m.opts.AlphaCap)
	}
}

func TestDisableHistoryKeepsAlphaOne(t *testing.T) {
	iso := isolatedIPC(t, 40_000)
	g := newGPU(t, "a", "b")
	goals := []float64{iso, 0}
	SetupFineGrained(g, goals, []float64{0.99, 0})
	m, _ := New(g, Rollover, goals, Options{DisableHistory: true}, nil)
	m.Install()
	g.RunCtx(context.Background(), 40_000)
	if m.Alpha(0) != 1 {
		t.Fatalf("α = %v with history disabled", m.Alpha(0))
	}
}

// The three carry tests below check the Manager's side of a carry (TestStep
// states the rules): leftovers are read off every SM's counter, pooled,
// and the carry is split back across the SMs. No TB is resident, so both
// the quota and the carry split evenly. α is pinned to 1 (nothing ran,
// so history would raise it to its cap) and the static adjuster is off.
var carryOpts = Options{DisableHistory: true, DisableStaticAdjust: true}

func TestNaiveDiscardsLeftovers(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, Naive, []float64{1000, 0}, carryOpts, nil)
	m.Install()
	// Leave the whole quota unused and roll the epoch: Naive must reset,
	// not accumulate.
	base := m.CounterFor(0, 0)
	m.OnEpoch(10_000)
	if got := m.CounterFor(0, 0); got != base {
		t.Fatalf("Naive carried leftover: %v -> %v", base, got)
	}
}

func TestRolloverCarriesLeftovers(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, Rollover, []float64{1000, 0}, carryOpts, nil)
	m.Install()
	// The whole quota is left, and at most one quota carries.
	base := m.CounterFor(0, 0)
	m.OnEpoch(10_000)
	if got := m.CounterFor(0, 0); got != 2*base {
		t.Fatalf("Rollover carried %v of an unused quota, want one quota: %v -> %v", got-base, base, got)
	}
}

func TestElasticCarriesDebt(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, Elastic, []float64{1000, 0}, carryOpts, nil)
	m.Install()
	base := m.CounterFor(0, 0)
	// Overconsume on SM0 only: the debt is pooled and every SM repays
	// its share of it.
	m.OnIssue(0, 0, int(base)+500)
	debt := m.CounterFor(0, 0)
	m.OnEpoch(10_000)
	want := base + debt/float64(g.Cfg.NumSMs)
	for sm := range g.Cfg.NumSMs {
		if got := m.CounterFor(sm, 0); got != want {
			t.Fatalf("SM %d: Elastic counter %v after a debt of %v, want %v", sm, got, debt, want)
		}
	}
}

func TestQuotaMarginApplied(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, Rollover, []float64{1000, 0}, Options{QuotaMargin: 0.10}, nil)
	m.Install()
	want := 1000.0 * float64(g.Cfg.EpochLength) * 1.10
	if got := m.Quota(0); got != want {
		t.Fatalf("quota = %v, want %v", got, want)
	}
	m2, _ := New(g, Rollover, []float64{1000, 0}, Options{QuotaMargin: -1}, nil)
	m2.Install()
	if got := m2.Quota(0); got != 1000*float64(g.Cfg.EpochLength) {
		t.Fatalf("negative margin should disable: quota %v", got)
	}
}

func TestStaticAdjusterGrowsStarvedQoSKernel(t *testing.T) {
	iso := isolatedIPC(t, 60_000)
	g := newGPU(t, "a", "b")
	goals := []float64{0.9 * iso, 0}
	SetupFineGrained(g, goals, []float64{0.9, 0})
	// Pin the QoS kernel to a deliberately tiny allocation so only the
	// run-time adjuster can get it anywhere near its goal.
	for _, s := range g.SMs {
		s.SetTBCap(0, 2)
	}
	m, _ := New(g, Rollover, goals, Options{}, nil)
	m.Install()
	g.RunCtx(context.Background(), 100_000)
	grew := false
	for _, s := range g.SMs {
		if cap := s.TBCap(0); cap < 0 || cap > 2 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("static adjuster never raised the starved QoS kernel's caps")
	}
}

func TestDisableStaticAdjustFreezesCaps(t *testing.T) {
	iso := isolatedIPC(t, 40_000)
	g := newGPU(t, "a", "b")
	goals := []float64{0.9 * iso, 0}
	SetupFineGrained(g, goals, []float64{0.15, 0})
	caps := make([]int, len(g.SMs))
	for i, s := range g.SMs {
		caps[i] = s.TBCap(0)
	}
	m, _ := New(g, Rollover, goals, Options{DisableStaticAdjust: true}, nil)
	m.Install()
	g.RunCtx(context.Background(), 60_000)
	for i, s := range g.SMs {
		if s.TBCap(0) != caps[i] {
			t.Fatal("caps moved with the static adjuster disabled")
		}
	}
}

func TestSetupFineGrainedMasks(t *testing.T) {
	g := newGPU(t, "q", "n1", "n2")
	SetupFineGrained(g, []float64{100, 0, 0}, nil)
	// QoS kernel everywhere; the two non-QoS kernels split the SMs.
	for i := range g.SMs {
		if !g.Allowed(0, i) {
			t.Fatal("QoS kernel masked off an SM")
		}
		if g.Allowed(1, i) == g.Allowed(2, i) {
			t.Fatalf("SM %d not owned by exactly one non-QoS kernel", i)
		}
	}
}

func TestTbsToEvict(t *testing.T) {
	g := newGPU(t, "a", "b")
	s := g.SMs[0]
	// Fill the SM with kernel 1 TBs, then ask how many must leave for
	// one TB of kernel 0 (identical shapes → exactly one).
	for i := 0; s.FreeFor(1); i++ {
		s.Dispatch(0, 1, i, nil)
	}
	need := g.Kernels[0].TBResources()
	victim := g.Kernels[1].TBResources()
	if n := tbsToEvict(s, need, victim); n != 1 {
		t.Fatalf("tbsToEvict = %d, want 1 for identical TB shapes", n)
	}
}

func TestQosExhaustedEverywhere(t *testing.T) {
	g := newGPU(t, "a", "b")
	g.RunCtx(context.Background(), 100) // dispatch some TBs
	m, _ := New(g, Rollover, []float64{1000, 0}, Options{}, nil)
	m.Install()
	if m.qosExhaustedEverywhere() {
		t.Fatal("fresh quotas reported exhausted")
	}
	for sm := 0; sm < g.Cfg.NumSMs; sm++ {
		for m.CounterFor(sm, 0) > 0 {
			m.OnIssue(sm, 0, 1024)
		}
	}
	if !m.qosExhaustedEverywhere() {
		t.Fatal("drained quotas not reported exhausted")
	}
}

func TestQuickQuotaAccounting(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, Rollover, []float64{5000, 0}, Options{}, nil)
	m.Install()
	// Property: between refreshes, a counter always equals its initial
	// value minus exactly the thread instructions reported to OnIssue.
	f := func(seed uint64, issues []uint8) bool {
		m.OnEpoch(0)
		sm := int(seed % uint64(g.Cfg.NumSMs))
		start := m.CounterFor(sm, 0)
		var total float64
		for _, n := range issues {
			lanes := int(n%32) + 1
			m.OnIssue(sm, 0, lanes)
			total += float64(lanes)
		}
		return m.CounterFor(sm, 0) == start-total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCanIssueMatchesCounterSign(t *testing.T) {
	g := newGPU(t, "a", "b")
	m, _ := New(g, Rollover, []float64{5000, 0}, Options{}, nil)
	m.Install()
	f := func(drain uint32) bool {
		m.OnEpoch(0)
		m.OnIssue(0, 0, int(drain%200_000))
		return m.CanIssue(0, 0) == (m.CounterFor(0, 0) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
