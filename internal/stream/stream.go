// Package stream generates, serializes and drives open-world arrival
// streams: multi-tenant job traffic whose submission times come from a
// seeded arrival process instead of the static launched-at-t=0 mixes
// the paper evaluates.
//
// A GenSpec names an arrival process (Poisson, diurnal
// sinusoid-modulated, or bursty MMPP), a mean rate, a duration, a seed
// and a tenant mix; Generate expands it into a Trace — an immutable,
// replayable JSONL artifact whose SHA-256 content hash binds every
// result derived from it. A Driver replays a Trace against a Backend
// (the in-process qosd decision loop, or a live daemon's /v1 or /v2
// HTTP API) in arrival order, holding admitted jobs for their
// per-arrival service time and releasing them before later arrivals,
// so the sequence of admission decisions is a pure function of the
// trace — two drives of the same trace through fresh daemons write
// byte-identical decision journals (the CI replay-determinism gate).
//
// All randomness comes from internal/rng's splitmix64 streams forked
// from the spec seed; wall-clock time never influences generation or
// submission order, only the measured time-to-verdict statistics.
package stream

import (
	"errors"
	"fmt"

	"repro/internal/schema"
)

// Arrival processes of GenSpec.Process.
const (
	// ProcessPoisson is a homogeneous Poisson process: i.i.d.
	// exponential inter-arrival times at RatePerSec.
	ProcessPoisson = "poisson"
	// ProcessDiurnal is a non-homogeneous Poisson process whose rate
	// follows a sinusoid around RatePerSec (thinning method): the
	// day/night load swing of serving traffic, compressed to the trace
	// duration.
	ProcessDiurnal = "diurnal"
	// ProcessBursty is a 2-state Markov-modulated Poisson process:
	// exponentially-distributed sojourns alternate between a burst
	// state (BurstFactor times the calm rate) and a calm state, with
	// the calm rate chosen so the mean rate stays RatePerSec —
	// equal-mean-load comparisons against poisson are fair.
	ProcessBursty = "bursty"
)

// ErrBadSpec marks a structurally invalid generation spec or trace.
var ErrBadSpec = errors.New("stream: invalid spec")

// TenantSpec is one tenant of the mix: a weight (its share of
// arrivals), the workload its jobs run, the QoS goal each job carries,
// and how long an admitted job holds its mix slot (virtual trace time).
type TenantSpec struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// Workload names a benchmark from internal/workloads (the paper
	// suite or the open-world set: "infer", "rtdet").
	Workload string `json:"workload"`
	// Goal is the typed QoS goal union each arrival submits (null =
	// best effort).
	Goal schema.Goal `json:"goal"`
	// HoldMs is the service time: how long an admitted job occupies its
	// mix slot before the driver releases it. 0 means the job is never
	// released during the trace.
	HoldMs int64 `json:"hold_ms,omitempty"`
	// GPUFraction is the fractional-GPU share arrivals request when the
	// trace is driven against a /v2 fleet backend (ignored by v1).
	GPUFraction float64 `json:"gpu_fraction,omitempty"`
}

// GenSpec parameterizes one generated arrival stream.
type GenSpec struct {
	// Process is ProcessPoisson, ProcessDiurnal or ProcessBursty.
	Process string `json:"process"`
	// RatePerSec is the mean arrival rate across the whole trace.
	RatePerSec float64 `json:"rate_per_sec"`
	// DurationMs is the trace length in virtual milliseconds.
	DurationMs int64 `json:"duration_ms"`
	// Seed feeds the forked rng streams (arrival times, tenant picks,
	// modulation). Same spec, same seed — same bytes.
	Seed uint64 `json:"seed"`
	// Tenants is the tenant mix; arrivals are assigned by weight.
	Tenants []TenantSpec `json:"tenants"`

	// DiurnalPeriodMs is the sinusoid period (diurnal only);
	// 0 means one full cycle over DurationMs.
	DiurnalPeriodMs int64 `json:"diurnal_period_ms,omitempty"`
	// DiurnalAmp is the sinusoid amplitude as a fraction of RatePerSec,
	// in (0,1]; 0 means the default 0.8.
	DiurnalAmp float64 `json:"diurnal_amp,omitempty"`

	// BurstFactor is the burst-state rate multiplier (bursty only);
	// 0 means the default 8.
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// BurstMs / CalmMs are the mean sojourn times of the two MMPP
	// states; 0 means the defaults 200ms / 1800ms (10% burst duty).
	BurstMs float64 `json:"burst_ms,omitempty"`
	CalmMs  float64 `json:"calm_ms,omitempty"`
}

// Defaults of the optional process parameters.
const (
	DefaultDiurnalAmp  = 0.8
	DefaultBurstFactor = 8.0
	DefaultBurstMs     = 200.0
	DefaultCalmMs      = 1800.0
)

// withDefaults returns the spec with optional parameters filled in, so
// generation and the serialized header agree on the effective values.
func (s GenSpec) withDefaults() GenSpec {
	if s.Process == ProcessDiurnal {
		if s.DiurnalPeriodMs == 0 {
			s.DiurnalPeriodMs = s.DurationMs
		}
		if s.DiurnalAmp == 0 {
			s.DiurnalAmp = DefaultDiurnalAmp
		}
	}
	if s.Process == ProcessBursty {
		if s.BurstFactor == 0 {
			s.BurstFactor = DefaultBurstFactor
		}
		if s.BurstMs == 0 {
			s.BurstMs = DefaultBurstMs
		}
		if s.CalmMs == 0 {
			s.CalmMs = DefaultCalmMs
		}
	}
	return s
}

// Validate checks the spec's invariants (after defaults).
func (s GenSpec) Validate() error {
	switch s.Process {
	case ProcessPoisson, ProcessDiurnal, ProcessBursty:
	default:
		return fmt.Errorf("%w: unknown process %q (want poisson, diurnal or bursty)", ErrBadSpec, s.Process)
	}
	if s.RatePerSec <= 0 {
		return fmt.Errorf("%w: rate_per_sec must be positive", ErrBadSpec)
	}
	if s.DurationMs <= 0 {
		return fmt.Errorf("%w: duration_ms must be positive", ErrBadSpec)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("%w: at least one tenant is required", ErrBadSpec)
	}
	seen := make(map[string]bool, len(s.Tenants))
	var weight float64
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("%w: tenant %d needs a name", ErrBadSpec, i)
		}
		if seen[t.Name] {
			return fmt.Errorf("%w: duplicate tenant %q", ErrBadSpec, t.Name)
		}
		seen[t.Name] = true
		if t.Weight <= 0 {
			return fmt.Errorf("%w: tenant %q weight must be positive", ErrBadSpec, t.Name)
		}
		if t.Workload == "" {
			return fmt.Errorf("%w: tenant %q needs a workload", ErrBadSpec, t.Name)
		}
		if t.HoldMs < 0 {
			return fmt.Errorf("%w: tenant %q hold_ms must be >= 0", ErrBadSpec, t.Name)
		}
		if t.GPUFraction < 0 || t.GPUFraction > 1 {
			return fmt.Errorf("%w: tenant %q gpu_fraction outside [0,1]", ErrBadSpec, t.Name)
		}
		if err := t.Goal.Validate(); err != nil {
			return fmt.Errorf("%w: tenant %q: %v", ErrBadSpec, t.Name, err)
		}
		weight += t.Weight
	}
	if weight <= 0 {
		return fmt.Errorf("%w: tenant weights sum to zero", ErrBadSpec)
	}
	if s.Process == ProcessDiurnal {
		if s.DiurnalPeriodMs < 0 {
			return fmt.Errorf("%w: diurnal_period_ms must be >= 0", ErrBadSpec)
		}
		if s.DiurnalAmp < 0 || s.DiurnalAmp > 1 {
			return fmt.Errorf("%w: diurnal_amp %v outside (0,1]", ErrBadSpec, s.DiurnalAmp)
		}
	}
	if s.Process == ProcessBursty {
		if s.BurstFactor < 1 {
			return fmt.Errorf("%w: burst_factor must be >= 1", ErrBadSpec)
		}
		if s.BurstMs < 0 || s.CalmMs < 0 {
			return fmt.Errorf("%w: burst_ms/calm_ms must be >= 0", ErrBadSpec)
		}
		// The calm rate is derived to keep the mean at RatePerSec:
		// rate_calm = rate * (1 - f*fb) / (1 - fb) with fb the burst
		// duty cycle. f*fb >= 1 would need a negative calm rate.
		fb := s.BurstMs / (s.BurstMs + s.CalmMs)
		if s.BurstFactor*fb >= 1 {
			return fmt.Errorf("%w: burst_factor %v at duty cycle %.2f implies a negative calm rate", ErrBadSpec, s.BurstFactor, fb)
		}
	}
	return nil
}

// Arrival is one trace event: at virtual time TUs (microseconds from
// trace start), tenant Tenant submits one job of Workload with Goal,
// holding its slot for HoldUs if admitted.
type Arrival struct {
	Seq      int         `json:"seq"`
	TUs      int64       `json:"t_us"`
	Tenant   string      `json:"tenant"`
	Workload string      `json:"workload"`
	Goal     schema.Goal `json:"goal"`
	HoldUs   int64       `json:"hold_us,omitempty"`
	// GPUFraction is the fractional-GPU share for /v2 backends.
	GPUFraction float64 `json:"gpu_fraction,omitempty"`
}
