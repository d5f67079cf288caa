package core

import (
	"repro/internal/config"
	"repro/internal/qos"
)

// settings collects everything an Option can configure before validation.
type settings struct {
	cfg Config
}

// Option configures a Session (see NewSession). Options apply in order,
// so a later WithGPU overrides an earlier one — derived sessions (for
// example an ablation that changes one knob) can append to a base option
// list.
type Option func(*settings)

// WithGPU selects the device configuration. The default is config.Base()
// (the paper's Table 1).
func WithGPU(cfg config.GPU) Option {
	return func(s *settings) { s.cfg.GPU = cfg }
}

// WithWindow sets the measurement window per run in cycles. The default
// is 200000. The paper simulates 2M cycles; shorter windows trade
// fidelity for speed and are recorded in EXPERIMENTS.md.
func WithWindow(cycles int64) Option {
	return func(s *settings) { s.cfg.WindowCycles = cycles }
}

// WithQoSOptions tunes the QoS manager (used by the ablation studies).
func WithQoSOptions(opts qos.Options) Option {
	return func(s *settings) { s.cfg.QoSOptions = opts }
}

// WithEventWheel turns event-wheel stepping on or off for every run of
// the session (the default is on). The wheel jumps the main loop between
// the next scheduled events — SM wake-ups, quota events, sample
// boundaries, epoch rolls — instead of ticking every cycle; runs are
// bit-identical either way. Off selects the per-cycle reference loop the
// wheel-equivalence tests compare against; nothing in production sets it.
func WithEventWheel(on bool) Option {
	return func(s *settings) { s.cfg.DisableEventWheel = !on }
}
