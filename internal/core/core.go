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
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"weak"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/qos"
	"repro/internal/sm"
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
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Schemes returns every scheme in declaration order.
func Schemes() []Scheme {
	return []Scheme{SchemeNone, SchemeNaive, SchemeNaiveHistory, SchemeElastic,
		SchemeRollover, SchemeRolloverTime, SchemeSpart}
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
	return 0, fmt.Errorf("%w %q (known: %s)", ErrUnknownScheme, name, SchemeNames(", "))
}

// SchemeNames joins the Name of every scheme, in declaration order, with
// sep.
func SchemeNames(sep string) string {
	names := make([]string, 0, len(Schemes()))
	for _, s := range Schemes() {
		names = append(names, s.Name())
	}
	return strings.Join(names, sep)
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

// profile resolves the spec's kernel profile.
func (ks KernelSpec) profile() (kern.Profile, error) {
	switch {
	case ks.Workload != "":
		p, err := workloads.ByName(ks.Workload)
		if err != nil {
			return kern.Profile{}, fmt.Errorf("%w %q", ErrUnknownWorkload, ks.Workload)
		}
		return p, nil
	case ks.Profile != nil:
		return *ks.Profile, nil
	}
	return kern.Profile{}, errors.New("core: spec needs Workload or Profile")
}

// baselineKey is the spec's baseline cache key. A suite workload is keyed
// by its name; a custom profile by its name plus a hash of the whole
// profile value, so two profiles that share a name but differ in any
// field (a smaller grid, say) never share a baseline.
func (ks KernelSpec) baselineKey() string {
	if ks.Workload != "" || ks.Profile == nil {
		return ks.name()
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%#v", *ks.Profile))
	return fmt.Sprintf("%s#%x", ks.Profile.Name, sum[:8])
}

// Config is a Session's resolved configuration, assembled by the
// functional options (WithGPU, WithWindow, WithQoSOptions,
// WithEventWheel). Sessions are constructed with NewSession(opts...);
// Config exists as a value type so Session.Config() can expose the
// resolved settings for hashing (sweep row-file keys, the qosd job log)
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
	// PowerCosts is always nil: the power model always prices events
	// with power.DefaultCosts(). The field stays only so that a Config
	// still marshals to "PowerCosts":null, keeping every hash of one —
	// sweep stage keys, the verdict config hash, journal headers — and so
	// every committed row file and journal valid.
	PowerCosts *struct{}
	// DisableEventWheel pins the stepper to per-cycle ticking instead of
	// event-wheel skipping (gpu.SetEventWheel). Wheel runs are
	// bit-identical to per-cycle runs, so the switch is excluded from
	// journal hashes; per-cycle ticking is the reference oracle the
	// wheel-equivalence tests compare against, not a production mode.
	DisableEventWheel bool `json:"-"`
}

// Session runs simulations under one fixed configuration, caches
// isolated-IPC measurements and owns everything its runs reuse. It is
// safe for concurrent use: concurrent runs measure each baseline once
// (singleflight) and each take their own device from the session's idle
// pool, or build one. A run rebuilds its device in place — kernels,
// decoded programs, saved contexts and the scheme's controller included —
// so it allocates only its Result and what it needs beyond earlier runs.
// A completed run puts its device back; one that fails, is canceled or
// panics drops it. Idle devices are held weakly: the garbage collector
// may reclaim them, and a run then builds afresh.
type Session struct {
	cfg      Config
	isolated *isolatedCache
	// build builds or rebuilds every device the session runs, its
	// kernels included (rebuild); tests wrap it to count builds.
	build func(d *device, cfg config.GPU, specs []KernelSpec, seed uint64) error

	mu   sync.Mutex
	idle []weak.Pointer[device] // devices no run holds, the last released last
}

// device is one entry of a session's idle pool: a simulated device and the
// controllers last built on it, each rebuilt by the next run of its type.
type device struct {
	g     *gpu.GPU
	qos   *qos.Manager
	spart *spart.Controller
}

// NewSession applies the options, validates the resulting configuration
// and returns a Session. With no options it models the paper's Table 1
// GPU over a 200000-cycle window.
func NewSession(opts ...Option) (*Session, error) {
	var st settings
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
	return &Session{cfg: cfg, isolated: &isolatedCache{entries: make(map[string]*isoEntry)}, build: rebuild}, nil
}

// GPUConfig returns the session's device configuration.
func (s *Session) GPUConfig() config.GPU { return s.cfg.GPU }

// Config returns a copy of the session's resolved configuration. Sweep
// stage keys hash it (together with the seed) to name row files, so a
// study can never read rows produced under different settings.
func (s *Session) Config() Config { return s.cfg }

// Window returns the measurement window in cycles.
func (s *Session) Window() int64 { return s.cfg.WindowCycles }

// Seed returns the profile-expansion seed, workloads.Seed. Every
// stochastic decision in a run is a pure function of it, so two sessions
// with equal configurations produce bit-identical results.
func (s *Session) Seed() uint64 { return workloads.Seed }

// rebuild builds the specs' kernels, slot i from specs[i], and a device
// over them into d, both in the storage of d's device (kern.Build,
// gpu.Rebuild); an empty d builds afresh.
func rebuild(d *device, cfg config.GPU, specs []KernelSpec, seed uint64) error {
	var kernels []*kern.Kernel
	if d.g != nil {
		kernels = d.g.Kernels
	}
	kernels = slices.Grow(kernels[:0], len(specs))[:len(specs)]
	for i, spec := range specs {
		p, err := spec.profile()
		if err == nil {
			kernels[i], err = kern.Build(i, p, seed, kernels[i])
		}
		if err != nil {
			return err
		}
	}
	g, err := gpu.Rebuild(d.g, cfg, kernels)
	if err == nil {
		d.g = g
	}
	return err
}

// IsolatedIPC measures (and caches) the kernel's thread-IPC when running
// alone on the whole GPU for the session window. Concurrent requests for
// the same kernel measure it once (singleflight). The context cancels
// the underlying simulation at epoch granularity.
//
// The measurement is exactly a lone unmanaged co-run (see RunTraced), so
// a baseline either one files is the baseline the other would measure,
// bit for bit. Suite workloads are cached by name, custom profiles by
// name and profile value.
func (s *Session) IsolatedIPC(ctx context.Context, spec KernelSpec) (float64, error) {
	return s.isolated.ipc(ctx, spec.baselineKey(), func() (float64, error) {
		d, err := s.simulate(ctx, []KernelSpec{spec}, SchemeNone, nil, nil, nil)
		if err != nil {
			return 0, err
		}
		ipc := d.g.IPC(0)
		s.release(d)
		return ipc, nil
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
// the caller exports afterwards (trace.Export). A nil tracer makes
// RunTraced identical to Run.
//
// A lone unmanaged run — one spec, SchemeNone, GoalFrac 0, so no goal
// needs the baseline before cycle 0 — is the kernel's isolated
// measurement. RunTraced then simulates once: it runs the device first
// and files the kernel's IPC as its isolated baseline, or, when the
// baseline is already cached, reports the cached value, which is the
// same number. A run that fails or is canceled files nothing.
func (s *Session) RunTraced(ctx context.Context, specs []KernelSpec, scheme Scheme, tr *trace.Tracer) (*Result, error) {
	if len(specs) == 0 {
		return nil, errors.New("core: no kernels")
	}
	if len(specs) > sm.MaxKernels {
		// Refused before any device, baseline runs included, is built.
		return nil, fmt.Errorf("core: %d kernels, at most %d can co-run", len(specs), sm.MaxKernels)
	}
	lone := len(specs) == 1 && scheme == SchemeNone && specs[0].GoalFrac == 0
	goals := make([]float64, len(specs))
	isolated := make([]float64, len(specs))
	for i, spec := range specs {
		p, err := spec.profile()
		if err == nil {
			err = p.Validate()
		}
		if err != nil {
			return nil, err
		}
		if spec.GoalFrac < 0 || spec.GoalIPC < 0 {
			return nil, fmt.Errorf("%w: negative goal for %s", ErrBadGoal, spec.name())
		}
		if !lone { // a lone run is the measurement; its IPC is filed after it
			if isolated[i], err = s.IsolatedIPC(ctx, spec); err != nil {
				return nil, err
			}
		}
		switch {
		case spec.GoalIPC > 0:
			goals[i] = spec.GoalIPC
		case spec.GoalFrac > 0:
			if spec.GoalFrac > 1 {
				return nil, fmt.Errorf("%w: GoalFrac %.2f > 1 for %s", ErrBadGoal, spec.GoalFrac, spec.name())
			}
			goals[i] = spec.GoalFrac * isolated[i]
		}
	}

	d, err := s.simulate(ctx, specs, scheme, goals, isolated, tr)
	if err != nil {
		return nil, err
	}
	g := d.g
	if lone {
		ipc := g.IPC(0)
		if isolated[0], err = s.isolated.ipc(ctx, specs[0].baselineKey(), func() (float64, error) { return ipc, nil }); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Scheme:     scheme,
		Cycles:     g.Now,
		AllReached: true,
		Power:      power.Measure(g, power.DefaultCosts()),
		Kernels:    make([]KernelResult, 0, len(specs)),
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
	s.release(d)
	return res, nil
}

// simulate builds a device over the specs' kernels, installs scheme and
// runs it for the session window: every simulation the session makes,
// the isolated measurement included. It rebuilds a device taken from the
// idle pool (take); the caller hands it back with release once it has read
// the run's results, and a run that fails or panics never does. It
// selects the event wheel, or the per-cycle reference loop when a test
// asked for it, and attaches tr (nil for none) before the scheme
// installs, so the first quota allocation (epoch 0, cycle 0) is captured
// too.
func (s *Session) simulate(ctx context.Context, specs []KernelSpec, scheme Scheme, goals, isolated []float64, tr *trace.Tracer) (*device, error) {
	d := s.take()
	if err := s.build(d, s.cfg.GPU, specs, workloads.Seed); err != nil {
		return nil, err
	}
	g := d.g
	g.SetEventWheel(!s.cfg.DisableEventWheel)
	if tr != nil {
		g.SetTracer(tr)
	}
	if err := d.installScheme(scheme, goals, isolated, s.cfg.QoSOptions); err != nil {
		return nil, err
	}
	if err := g.RunCtx(ctx, s.cfg.WindowCycles); err != nil {
		return nil, err
	}
	return d, nil
}

// take removes the last released device still alive from the idle pool,
// or returns an empty one when there is none.
func (s *Session) take() *device {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := len(s.idle); n > 0; n-- {
		d := s.idle[n-1].Value()
		s.idle = s.idle[:n-1]
		if d != nil {
			return d
		}
	}
	return new(device)
}

// release puts d, whose run has been read, back into the idle pool.
func (s *Session) release(d *device) {
	s.mu.Lock()
	s.idle = append(s.idle, weak.Make(d))
	s.mu.Unlock()
}

// installScheme wires the chosen management policy into the device,
// rebuilding the device's own controller of that type in place.
func (d *device) installScheme(scheme Scheme, goals, isolated []float64, opts qos.Options) error {
	switch scheme {
	case SchemeNone:
		return nil
	case SchemeSpart:
		c, err := spart.New(d.g, goals, isolated, d.spart)
		if err != nil {
			return err
		}
		d.spart = c
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
		qos.SetupFineGrained(d.g, goals, fracs)
		m, err := qos.New(d.g, qs, goals, opts, d.qos)
		if err != nil {
			return err
		}
		d.qos = m
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
