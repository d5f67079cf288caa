// Package core is the library's public facade. It assembles a simulated
// GPU, translates application QoS goals into architectural IPC goals
// (Section 3.2 of the paper), installs the selected management scheme and
// runs the co-execution, returning per-kernel results.
//
// Typical use:
//
//	s, _ := core.NewSession()
//	res, _ := s.Run(ctx, []core.KernelSpec{
//	    {Workload: "sgemm", GoalFrac: 0.8}, // QoS kernel: 80% of isolated
//	    {Workload: "lbm"},                  // non-QoS kernel
//	}, core.SchemeRollover)
//	fmt.Println(res.Kernels[0].Reached)
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/qos"
	"repro/internal/spart"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Sentinel errors callers can test with errors.Is instead of matching
// error text.
var (
	// ErrUnknownScheme is returned by ParseScheme for unrecognized names.
	ErrUnknownScheme = errors.New("core: unknown scheme")
	// ErrUnknownWorkload is returned when a KernelSpec names a benchmark
	// that is not in the workloads suite.
	ErrUnknownWorkload = errors.New("core: unknown workload")
	// ErrBadGoal is returned for malformed QoS goals (negative values or
	// fractions above 1).
	ErrBadGoal = errors.New("core: bad QoS goal")
)

// Scheme selects the sharing/QoS management policy for a run.
type Scheme int

const (
	// SchemeNone runs unmanaged fine-grained sharing (no QoS control).
	SchemeNone Scheme = iota
	// SchemeNaive is quota allocation without history adjustment.
	SchemeNaive
	// SchemeNaiveHistory adds the α history adjustment (Figure 5).
	SchemeNaiveHistory
	// SchemeElastic is the elastic-epoch scheme.
	SchemeElastic
	// SchemeRollover is the paper's best scheme.
	SchemeRollover
	// SchemeRolloverTime is the CPU-style prioritized variant.
	SchemeRolloverTime
	// SchemeSpart is the spatial-partitioning baseline with hill
	// climbing.
	SchemeSpart
	// SchemeFair is an extension: SMK-style fairness on the same quota
	// machinery (equal normalized progress for every sharer; goals are
	// ignored). The paper's firmware can switch between fairness and
	// QoS policies (Section 3.3).
	SchemeFair
)

// String returns the display name used in figures.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "Unmanaged"
	case SchemeNaive:
		return "Naive"
	case SchemeNaiveHistory:
		return "Naive+History"
	case SchemeElastic:
		return "Elastic"
	case SchemeRollover:
		return "Rollover"
	case SchemeRolloverTime:
		return "Rollover-Time"
	case SchemeSpart:
		return "Spart"
	case SchemeFair:
		return "Fair"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Name returns the canonical lowercase identifier ParseScheme accepts,
// the form used by command-line flags and CSV output.
func (s Scheme) Name() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeNaive:
		return "naive"
	case SchemeNaiveHistory:
		return "naive-history"
	case SchemeElastic:
		return "elastic"
	case SchemeRollover:
		return "rollover"
	case SchemeRolloverTime:
		return "rollover-time"
	case SchemeSpart:
		return "spart"
	case SchemeFair:
		return "fair"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Schemes returns every scheme in declaration order.
func Schemes() []Scheme {
	return []Scheme{SchemeNone, SchemeNaive, SchemeNaiveHistory, SchemeElastic,
		SchemeRollover, SchemeRolloverTime, SchemeSpart, SchemeFair}
}

// ParseScheme resolves a scheme name (case-insensitive; both the
// canonical Name form and the display String form are accepted). Unknown
// names return an error wrapping ErrUnknownScheme.
func ParseScheme(name string) (Scheme, error) {
	needle := strings.ToLower(strings.TrimSpace(name))
	for _, s := range Schemes() {
		if needle == s.Name() || needle == strings.ToLower(s.String()) {
			return s, nil
		}
	}
	names := make([]string, 0, len(Schemes()))
	for _, s := range Schemes() {
		names = append(names, s.Name())
	}
	return 0, fmt.Errorf("%w %q (known: %s)", ErrUnknownScheme, name, strings.Join(names, ", "))
}

// qosScheme maps facade schemes to qos package schemes.
func (s Scheme) qosScheme() (qos.Scheme, bool) {
	switch s {
	case SchemeNaive:
		return qos.Naive, true
	case SchemeNaiveHistory:
		return qos.NaiveHistory, true
	case SchemeElastic:
		return qos.Elastic, true
	case SchemeRollover:
		return qos.Rollover, true
	case SchemeRolloverTime:
		return qos.RolloverTime, true
	}
	return 0, false
}

// KernelSpec names one kernel of a co-run and its QoS goal.
type KernelSpec struct {
	// Workload is a benchmark name from internal/workloads. Leave empty
	// and set Profile for a custom kernel.
	Workload string
	// Profile is a custom kernel profile (ignored when Workload is set).
	Profile *kern.Profile

	// GoalFrac expresses the QoS goal as a fraction of the kernel's
	// isolated IPC (the paper sweeps 0.50..0.95). 0 means non-QoS.
	GoalFrac float64
	// GoalIPC is an absolute thread-IPC goal; it overrides GoalFrac
	// when positive.
	GoalIPC float64
}

// name returns the display name of the spec.
func (ks KernelSpec) name() string {
	if ks.Workload != "" {
		return ks.Workload
	}
	if ks.Profile != nil {
		return ks.Profile.Name
	}
	return "?"
}

// Config is a Session's resolved configuration, assembled by the
// functional options (WithGPU, WithWindow, WithQoSOptions,
// WithPowerCosts). Sessions are constructed with NewSession(opts...);
// Config exists as a value type so Session.Config() can expose the
// resolved settings for hashing (checkpoint journals, the qosd job log)
// and inspection.
type Config struct {
	// GPU is the device configuration; the zero value means
	// config.Base() (the paper's Table 1).
	GPU config.GPU
	// WindowCycles is the measurement window per run. 0 means 200000.
	// The paper simulates 2M cycles; shorter windows trade fidelity for
	// speed and are recorded in EXPERIMENTS.md.
	WindowCycles int64
	// QoSOptions tunes the QoS manager (ablations).
	QoSOptions qos.Options
	// PowerCosts overrides the energy table; nil means defaults.
	PowerCosts *power.Costs
	// DisableEventWheel pins the stepper to per-cycle ticking instead of
	// event-wheel skipping (gpu.SetEventWheel). Wheel runs are
	// bit-identical to per-cycle runs, so the switch is excluded from
	// journal hashes; per-cycle ticking is the reference oracle the
	// wheel-equivalence tests compare against, not a production mode.
	DisableEventWheel bool `json:"-"`
}

// Session runs simulations under one fixed configuration and caches
// isolated-IPC measurements. A Session is safe for concurrent use; the
// parallel sweep runner nevertheless gives each worker its own Session
// (sharing only the synchronized isolated-IPC cache) so no simulation
// state is ever shared between goroutines.
type Session struct {
	cfg      Config
	seed     uint64
	isolated *IsolatedCache
}

// NewSession applies the options, validates the resulting configuration
// and returns a Session. With no options it models the paper's Table 1
// GPU over a 200000-cycle window.
func NewSession(opts ...Option) (*Session, error) {
	st := defaultSettings()
	for _, o := range opts {
		o(&st)
	}
	cfg := st.cfg
	if cfg.GPU.NumSMs == 0 {
		cfg.GPU = config.Base()
	}
	if err := cfg.GPU.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowCycles == 0 {
		cfg.WindowCycles = 200_000
	}
	if cfg.WindowCycles < 2*cfg.GPU.EpochLength {
		return nil, errors.New("core: window must cover at least two epochs")
	}
	cache := st.cache
	if cache == nil {
		cache = NewIsolatedCache()
	}
	return &Session{cfg: cfg, seed: st.seed, isolated: cache}, nil
}

// GPUConfig returns the session's device configuration.
func (s *Session) GPUConfig() config.GPU { return s.cfg.GPU }

// Config returns a copy of the session's resolved configuration. The
// checkpoint journal hashes it (together with the seed) to key sweep
// stages, so a resumed study can never splice in results produced under
// different settings.
func (s *Session) Config() Config { return s.cfg }

// Window returns the measurement window in cycles.
func (s *Session) Window() int64 { return s.cfg.WindowCycles }

// Seed returns the profile-expansion seed.
func (s *Session) Seed() uint64 { return s.seed }

// buildKernel materializes a spec into a kernel with runtime slot id.
func (s *Session) buildKernel(spec KernelSpec, slot int) (*kern.Kernel, error) {
	if spec.Workload != "" {
		p, err := workloads.ByName(spec.Workload)
		if err != nil {
			return nil, fmt.Errorf("%w %q", ErrUnknownWorkload, spec.Workload)
		}
		return kern.Build(slot, p, s.seed)
	}
	if spec.Profile != nil {
		return kern.Build(slot, *spec.Profile, s.seed)
	}
	return nil, errors.New("core: spec needs Workload or Profile")
}

// IsolatedIPC measures (and caches) the kernel's thread-IPC when running
// alone on the whole GPU for the session window. Concurrent requests for
// the same kernel measure it once (singleflight); the cache may be shared
// across sessions via WithIsolatedCache. The context cancels the
// underlying simulation at epoch granularity.
func (s *Session) IsolatedIPC(ctx context.Context, spec KernelSpec) (float64, error) {
	return s.isolated.ipc(spec.name(), func() (float64, error) {
		k, err := s.buildKernel(spec, 0)
		if err != nil {
			return 0, err
		}
		g, err := gpu.New(s.cfg.GPU, []*kern.Kernel{k})
		if err != nil {
			return 0, err
		}
		s.applyStepping(g)
		if err := g.RunCtx(ctx, s.cfg.WindowCycles); err != nil {
			return 0, err
		}
		return g.IPC(0), nil
	})
}

// KernelResult reports one kernel's outcome in a co-run.
type KernelResult struct {
	Name        string
	IsQoS       bool
	GoalIPC     float64 // absolute goal (0 for non-QoS)
	IPC         float64 // achieved thread-IPC
	IsolatedIPC float64
	// Reached reports whether a QoS kernel met its goal.
	Reached bool
	// NormThroughput is IPC / IsolatedIPC (the paper's normalized
	// throughput for non-QoS kernels, Figure 8).
	NormThroughput float64
	// GoalRatio is IPC / GoalIPC for QoS kernels (Figure 9 overshoot).
	GoalRatio float64
	Stats     metrics.KernelStats
}

// Result reports a complete co-run.
type Result struct {
	Scheme  Scheme
	Cycles  int64
	Kernels []KernelResult
	// AllReached is true when every QoS kernel met its goal.
	AllReached bool
	Power      power.Report
	// TotalIPC is the combined thread-IPC of all kernels.
	TotalIPC float64
}

// Run co-executes the specs under the given scheme for the session
// window and reports per-kernel outcomes. Isolated IPCs are measured (or
// taken from cache) first to resolve fractional goals. Cancellation of
// ctx is honored at epoch boundaries of the cycle loop and returns the
// context's error.
func (s *Session) Run(ctx context.Context, specs []KernelSpec, scheme Scheme) (*Result, error) {
	return s.RunTraced(ctx, specs, scheme, nil)
}

// RunTraced is Run with an observability tracer attached to the simulated
// device for the whole co-run: every layer (TB scheduler, SMs, QoS
// manager, spatial controller) emits its control decisions into tr, which
// the caller exports afterwards (trace.Export / trace.WriteFile). A nil
// tracer makes RunTraced identical to Run.
func (s *Session) RunTraced(ctx context.Context, specs []KernelSpec, scheme Scheme, tr *trace.Tracer) (*Result, error) {
	if len(specs) == 0 {
		return nil, errors.New("core: no kernels")
	}
	kernels := make([]*kern.Kernel, len(specs))
	goals := make([]float64, len(specs))
	isolated := make([]float64, len(specs))
	for i, spec := range specs {
		k, err := s.buildKernel(spec, i)
		if err != nil {
			return nil, err
		}
		kernels[i] = k
		if spec.GoalFrac < 0 || spec.GoalIPC < 0 {
			return nil, fmt.Errorf("%w: negative goal for %s", ErrBadGoal, spec.name())
		}
		iso, err := s.IsolatedIPC(ctx, spec)
		if err != nil {
			return nil, err
		}
		isolated[i] = iso
		switch {
		case spec.GoalIPC > 0:
			goals[i] = spec.GoalIPC
		case spec.GoalFrac > 0:
			if spec.GoalFrac > 1 {
				return nil, fmt.Errorf("%w: GoalFrac %.2f > 1 for %s", ErrBadGoal, spec.GoalFrac, spec.name())
			}
			goals[i] = spec.GoalFrac * iso
		}
	}

	g, err := gpu.New(s.cfg.GPU, kernels)
	if err != nil {
		return nil, err
	}
	s.applyStepping(g)
	if tr != nil {
		// Attach before the scheme installs so the first quota
		// allocation (epoch 0, cycle 0) is captured too.
		g.SetTracer(tr)
	}
	if err := installScheme(g, scheme, goals, isolated, s.cfg.QoSOptions); err != nil {
		return nil, err
	}
	if err := g.RunCtx(ctx, s.cfg.WindowCycles); err != nil {
		return nil, err
	}

	costs := power.DefaultCosts()
	if s.cfg.PowerCosts != nil {
		costs = *s.cfg.PowerCosts
	}
	res := &Result{
		Scheme:     scheme,
		Cycles:     g.Now,
		AllReached: true,
		Power:      power.Measure(g, costs),
	}
	for i, spec := range specs {
		kr := KernelResult{
			Name:        spec.name(),
			IsQoS:       goals[i] > 0,
			GoalIPC:     goals[i],
			IPC:         g.IPC(i),
			IsolatedIPC: isolated[i],
			Stats:       *g.Stats[i],
		}
		if kr.IsolatedIPC > 0 {
			kr.NormThroughput = kr.IPC / kr.IsolatedIPC
		}
		if kr.IsQoS {
			kr.GoalRatio = kr.IPC / kr.GoalIPC
			kr.Reached = kr.IPC >= kr.GoalIPC
			if !kr.Reached {
				res.AllReached = false
			}
		}
		res.TotalIPC += kr.IPC
		res.Kernels = append(res.Kernels, kr)
	}
	return res, nil
}

// applyStepping selects the stepper on a freshly built device: the event
// wheel, or the per-cycle reference loop when a test asked for it.
func (s *Session) applyStepping(g *gpu.GPU) {
	g.SetEventWheel(!s.cfg.DisableEventWheel)
}

// installScheme wires the chosen management policy into the GPU.
func installScheme(g *gpu.GPU, scheme Scheme, goals, isolated []float64, opts qos.Options) error {
	switch scheme {
	case SchemeNone:
		return nil
	case SchemeFair:
		f, err := qos.NewFair(g, isolated, opts)
		if err != nil {
			return err
		}
		f.Install()
		return nil
	case SchemeSpart:
		c, err := spart.New(g, goals, isolated)
		if err != nil {
			return err
		}
		c.Install()
		return nil
	default:
		qs, ok := scheme.qosScheme()
		if !ok {
			return fmt.Errorf("core: unknown scheme %v", scheme)
		}
		fracs := make([]float64, len(goals))
		for i, goal := range goals {
			if goal > 0 && isolated[i] > 0 {
				fracs[i] = goal / isolated[i]
			}
		}
		qos.SetupFineGrained(g, goals, fracs)
		m, err := qos.New(g, qs, goals, opts)
		if err != nil {
			return err
		}
		m.Install()
		return nil
	}
}

// IPCGoalForDeadline translates an application-level requirement —
// "execute instrs thread instructions within seconds of pure kernel time"
// — into the architectural IPC goal the QoS manager enforces
// (Section 3.2: IPC = Instructions / (Frequency * KernelExecutionTime)).
func IPCGoalForDeadline(cfg config.GPU, instrs int64, seconds float64) (float64, error) {
	if instrs <= 0 || seconds <= 0 {
		return 0, errors.New("core: instrs and seconds must be positive")
	}
	freq := float64(cfg.CoreClockMHz) * 1e6
	return float64(instrs) / (freq * seconds), nil
}

// PCIeTransferSeconds estimates the PCI-E transfer component an OS
// scheduler must subtract from an end-to-end deadline before calling
// IPCGoalForDeadline (Section 3.2 discusses this accounting): fixed
// per-transfer latency plus size over bandwidth.
func PCIeTransferSeconds(bytes int64, gbps float64, fixedLatency float64) float64 {
	if bytes <= 0 || gbps <= 0 {
		return fixedLatency
	}
	return fixedLatency + float64(bytes)/(gbps*1e9)
}
