package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/kern"
	"repro/internal/schema"
	"repro/internal/sm"
)

// fastOpts is a small device + short window for facade tests.
func fastOpts() []Option {
	cfg := config.Base()
	cfg.NumSMs = 4
	return []Option{WithGPU(cfg), WithWindow(40_000)}
}

func fastSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func customProfile(name string) *kern.Profile {
	return &kern.Profile{
		Name: name, Class: kern.ClassCompute,
		BodyInstrs: 12, Iterations: 400,
		FracGlobalMem: 0.1, FracStore: 0.2,
		DepDensity:     0.2,
		CoalesceDegree: 1.5, ReuseFrac: 0.5,
		HotBytes: 4 << 10, FootprintBytes: 1 << 20,
		ThreadsPerTB: 64, RegsPerThread: 16, GridTBs: 192,
	}
}

func TestNewSessionDefaults(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if s.GPUConfig().NumSMs != 16 {
		t.Fatal("optionless session did not default to Table 1")
	}
	if s.Window() != 200_000 {
		t.Fatalf("default window = %d", s.Window())
	}
}

func TestNewSessionRejectsShortWindow(t *testing.T) {
	if _, err := NewSession(WithWindow(100)); err == nil {
		t.Fatal("accepted a window shorter than two epochs")
	}
}

// TestSessionConfigExposesResolvedSettings checks Session.Config returns
// the post-validation configuration (the value sweep stage keys and the
// qosd job log hash), including applied defaults.
func TestSessionConfigExposesResolvedSettings(t *testing.T) {
	cfg := config.Base()
	cfg.NumSMs = 4
	s, err := NewSession(WithGPU(cfg), WithWindow(40_000))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Config()
	if got.GPU != cfg || got.WindowCycles != 40_000 {
		t.Fatalf("resolved config diverged: %+v", got)
	}
	def, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if def.Config().WindowCycles != 200_000 || def.Config().GPU.NumSMs != 16 {
		t.Fatalf("defaults not resolved into Config: %+v", def.Config())
	}
}

// TestOptionOrder checks later options override earlier ones — the
// property Runner.With relies on to derive ablation runners.
func TestOptionOrder(t *testing.T) {
	small := config.Base()
	small.NumSMs = 4
	s, err := NewSession(WithGPU(config.Base()), WithGPU(small), WithWindow(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if s.GPUConfig().NumSMs != 4 {
		t.Fatalf("later WithGPU did not win: %d SMs", s.GPUConfig().NumSMs)
	}
}

func TestIsolatedIPCCached(t *testing.T) {
	s := fastSession(t)
	ctx := context.Background()
	spec := KernelSpec{Profile: customProfile("c")}
	a, err := s.IsolatedIPC(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 {
		t.Fatal("no isolated progress")
	}
	b, _ := s.IsolatedIPC(ctx, spec)
	if a != b {
		t.Fatal("isolated IPC changed between calls (cache broken)")
	}
}

// TestSharedIsolatedCacheSingleflight checks that the concurrent runs
// sharing one session's isolated cache compute each baseline exactly
// once, however many goroutines ask — the property the sweep runner's
// workers and a fleet's same-device nodes rely on.
func TestSharedIsolatedCacheSingleflight(t *testing.T) {
	var computes atomic.Int64
	cache := newIsolatedCache()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := cache.ipc(context.Background(), "k", func() (float64, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("ipc = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("baseline computed %d times, want 1", n)
	}
	if cache.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.len())
	}
}

// TestIsolatedCacheEvictsErrors checks a failed (e.g. canceled)
// computation does not poison the cache: the next caller retries.
func TestIsolatedCacheEvictsErrors(t *testing.T) {
	cache := newIsolatedCache()
	boom := errors.New("boom")
	if _, err := cache.ipc(context.Background(), "k", func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if cache.len() != 0 {
		t.Fatal("failed entry not evicted")
	}
	v, err := cache.ipc(context.Background(), "k", func() (float64, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after failure: %v, %v", v, err)
	}
}

func TestRunValidation(t *testing.T) {
	s := fastSession(t)
	ctx := context.Background()
	if _, err := s.Run(ctx, nil, SchemeRollover); err == nil {
		t.Fatal("accepted empty spec list")
	}
	if _, err := s.Run(ctx, []KernelSpec{{}}, SchemeRollover); err == nil {
		t.Fatal("accepted spec without workload or profile")
	}
	// A warp context names its kernel slot in one byte: more kernels
	// than sm.MaxKernels are an error, not a panic or a wrapped slot,
	// and no device is built for them, not even a baseline.
	builds := countDeviceBuilds(s)
	many := make([]KernelSpec, sm.MaxKernels+1)
	for i := range many {
		many[i] = KernelSpec{Profile: customProfile("a")}
	}
	if _, err := s.Run(ctx, many, SchemeRollover); err == nil || builds.Load() != 0 {
		t.Fatalf("%d kernels: err %v after %d device builds, want an error before any", len(many), err, builds.Load())
	}
	if _, err := s.Run(ctx, []KernelSpec{
		{Profile: customProfile("a"), GoalFrac: 1.5},
		{Profile: customProfile("b")},
	}, SchemeRollover); !errors.Is(err, ErrBadGoal) {
		t.Fatalf("GoalFrac > 1: err = %v, want ErrBadGoal", err)
	}
	if _, err := s.Run(ctx, []KernelSpec{
		{Profile: customProfile("a"), GoalFrac: -0.5},
		{Profile: customProfile("b")},
	}, SchemeRollover); !errors.Is(err, ErrBadGoal) {
		t.Fatalf("negative GoalFrac: err = %v, want ErrBadGoal", err)
	}
	if _, err := s.Run(ctx, []KernelSpec{
		{Workload: "no-such-kernel"},
		{Profile: customProfile("b")},
	}, SchemeRollover); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown workload: err = %v, want ErrUnknownWorkload", err)
	}
}

// TestRunCanceled checks ctx cancellation aborts a run promptly with
// context.Canceled instead of returning a partial Result.
func TestRunCanceled(t *testing.T) {
	s := fastSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Run(ctx, []KernelSpec{
		{Profile: customProfile("a"), GoalFrac: 0.5},
		{Profile: customProfile("b")},
	}, SchemeRollover)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := s.IsolatedIPC(ctx, KernelSpec{Profile: customProfile("a")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("IsolatedIPC err = %v, want context.Canceled", err)
	}
}

func TestRunReachesEasyGoal(t *testing.T) {
	s := fastSession(t)
	res, err := s.Run(context.Background(), []KernelSpec{
		{Profile: customProfile("a"), GoalFrac: 0.4},
		{Profile: customProfile("b")},
	}, SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	q := res.Kernels[0]
	if !q.IsQoS || q.GoalIPC <= 0 {
		t.Fatal("QoS kernel not classified")
	}
	if !q.Reached {
		t.Fatalf("easy 40%% goal missed: IPC %.1f of %.1f", q.IPC, q.GoalIPC)
	}
	if !res.AllReached {
		t.Fatal("AllReached false with all QoS goals met")
	}
	nq := res.Kernels[1]
	if nq.IsQoS || nq.GoalIPC != 0 {
		t.Fatal("non-QoS kernel misclassified")
	}
	if res.TotalIPC < q.IPC {
		t.Fatal("TotalIPC less than one kernel's IPC")
	}
	if res.Power.ThreadInstrs == 0 {
		t.Fatal("power report empty")
	}
}

func TestRunAllSchemes(t *testing.T) {
	s := fastSession(t)
	specs := []KernelSpec{
		{Profile: customProfile("a"), GoalFrac: 0.5},
		{Profile: customProfile("b")},
	}
	for _, scheme := range []Scheme{SchemeNone, SchemeNaive, SchemeNaiveHistory,
		SchemeElastic, SchemeRollover, SchemeRolloverTime, SchemeSpart} {
		res, err := s.Run(context.Background(), specs, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Cycles != s.Window() {
			t.Fatalf("%v: ran %d cycles", scheme, res.Cycles)
		}
		if res.Kernels[0].IPC <= 0 {
			t.Fatalf("%v: QoS kernel made no progress", scheme)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	specs := []KernelSpec{
		{Profile: customProfile("a"), GoalFrac: 0.5},
		{Profile: customProfile("b")},
	}
	run := func() float64 {
		s, _ := NewSession(fastOpts()...)
		res, err := s.Run(context.Background(), specs, SchemeRollover)
		if err != nil {
			t.Fatal(err)
		}
		return res.Kernels[0].IPC*1e6 + res.Kernels[1].IPC
	}
	if run() != run() {
		t.Fatal("identical sessions produced different results")
	}
}

func TestWorkloadSpecsResolve(t *testing.T) {
	s := fastSession(t)
	res, err := s.Run(context.Background(), []KernelSpec{
		{Workload: "sgemm", GoalFrac: 0.3},
		{Workload: "lbm"},
	}, SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels[0].Name != "sgemm" || res.Kernels[1].Name != "lbm" {
		t.Fatal("workload names not carried through")
	}
}

func TestAbsoluteGoalOverridesFraction(t *testing.T) {
	s := fastSession(t)
	res, err := s.Run(context.Background(), []KernelSpec{
		{Profile: customProfile("a"), GoalFrac: 0.9, GoalIPC: 12.5},
		{Profile: customProfile("b")},
	}, SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels[0].GoalIPC != 12.5 {
		t.Fatalf("GoalIPC = %v, want the absolute 12.5", res.Kernels[0].GoalIPC)
	}
}

func TestSchemeStrings(t *testing.T) {
	for s := SchemeNone; s <= SchemeSpart; s++ {
		if s.String() == "" {
			t.Fatalf("scheme %d has no name", int(s))
		}
	}
}

// TestParseSchemeRoundTrip checks every scheme parses from both its
// canonical Name and its String form.
func TestParseSchemeRoundTrip(t *testing.T) {
	all := Schemes()
	if len(all) != 7 {
		t.Fatalf("Schemes() lists %d schemes", len(all))
	}
	for _, sc := range all {
		got, err := ParseScheme(sc.Name())
		if err != nil || got != sc {
			t.Fatalf("ParseScheme(%q) = %v, %v", sc.Name(), got, err)
		}
		got, err = ParseScheme(sc.String())
		if err != nil || got != sc {
			t.Fatalf("ParseScheme(%q) = %v, %v", sc.String(), got, err)
		}
	}
}

// TestParseSchemeUnknown also holds the deleted SMK fairness scheme
// ("fair") to unknown.
func TestParseSchemeUnknown(t *testing.T) {
	for _, name := range []string{"quantum", "fair"} {
		if _, err := ParseScheme(name); !errors.Is(err, ErrUnknownScheme) {
			t.Fatalf("ParseScheme(%q) err = %v, want ErrUnknownScheme", name, err)
		}
	}
}

func TestIPCGoalForDeadline(t *testing.T) {
	cfg := config.Base()
	// 1216 MHz, 1.216e9 instrs in 1 second → IPC goal of exactly 1.
	goal, err := IPCGoalForDeadline(cfg, 1_216_000_000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if goal < 0.999 || goal > 1.001 {
		t.Fatalf("goal = %v, want 1.0", goal)
	}
	if _, err := IPCGoalForDeadline(cfg, 0, 1); err == nil {
		t.Fatal("accepted zero instructions")
	}
	if _, err := IPCGoalForDeadline(cfg, 100, 0); err == nil {
		t.Fatal("accepted zero deadline")
	}
}

// TestResolveGoalRejectsNonFiniteIPC: every time-based form validates
// (both fields positive) yet divides to +Inf — or, for the latency form,
// to a finite target the tail headroom then overflows. Each must be
// ErrBadGoal, never a spec carrying an infinite quota.
func TestResolveGoalRejectsNonFiniteIPC(t *testing.T) {
	cfg := config.Base()
	const instrs = 9_000_000_000_000_000_000
	// A budget whose plain target is finite and within 1.225x of overflow.
	edge := instrs / (float64(cfg.CoreClockMHz) * 1e6) / 1.6e308
	if ipc, err := IPCGoalForDeadline(cfg, instrs, edge); err != nil || math.IsInf(ipc, 0) {
		t.Fatalf("edge budget: ipc %v, err %v; want finite", ipc, err)
	}
	for name, g := range map[string]schema.Goal{
		"deadline":          schema.DeadlineGoal(schema.Deadline{Instrs: instrs, Seconds: 1e-300}),
		"latency":           schema.LatencyGoal(schema.Latency{Instrs: instrs, Seconds: 1e-300}),
		"periodic":          schema.PeriodicGoal(schema.Periodic{Instrs: instrs, PeriodS: 1e-300}),
		"latency-headroom":  schema.LatencyGoal(schema.Latency{Instrs: instrs, Seconds: edge, Percentile: 0.99}),
		"periodic-deadline": schema.PeriodicGoal(schema.Periodic{Instrs: instrs, PeriodS: 1, DeadlineS: 1e-300}),
	} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: Validate = %v; the row must reach the division", name, err)
		}
		if gf, gi, err := ResolveGoal(cfg, g); !errors.Is(err, ErrBadGoal) {
			t.Errorf("%s: ResolveGoal = (%v, %v, %v), want ErrBadGoal", name, gf, gi, err)
		}
	}
	// The same shapes with a sane budget still resolve.
	if _, gi, err := ResolveGoal(cfg, schema.DeadlineGoal(schema.Deadline{Instrs: instrs, Seconds: 1})); err != nil || gi <= 0 || math.IsInf(gi, 0) {
		t.Fatalf("sane deadline: (%v, %v)", gi, err)
	}
}

func TestPCIeTransferSeconds(t *testing.T) {
	// 16 GB/s, 16 GB payload → 1 second plus fixed latency.
	got := PCIeTransferSeconds(16<<30, 16*(1<<30)/1e9, 0.001)
	if got < 1.0 || got > 1.1 {
		t.Fatalf("transfer time %v, want ~1s", got)
	}
	if PCIeTransferSeconds(0, 16, 0.002) != 0.002 {
		t.Fatal("zero-byte transfer should cost only fixed latency")
	}
}
