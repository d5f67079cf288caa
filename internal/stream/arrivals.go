package stream

import (
	"math"

	"repro/internal/rng"
)

// rng stream ids forked off the spec seed. Distinct sub-streams keep
// the draws of one concern (arrival times, tenant picks, thinning,
// MMPP state flips) independent of how many draws another concern
// makes, so e.g. changing the tenant mix never shifts arrival times.
const (
	streamTimes  = 1
	streamTenant = 2
	streamMod    = 3
)

// Generate expands a spec into a Trace. The result is a pure function
// of the spec (including its seed): same spec, same trace bytes, same
// content hash.
func Generate(spec GenSpec) (*Trace, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(spec.Seed)
	times := src.Fork(streamTimes)
	pick := src.Fork(streamTenant)
	mod := src.Fork(streamMod)

	var timesUs []int64
	switch spec.Process {
	case ProcessPoisson:
		timesUs = poissonTimes(times, spec.RatePerSec, spec.DurationMs)
	case ProcessDiurnal:
		timesUs = diurnalTimes(times, mod, spec)
	case ProcessBursty:
		timesUs = burstyTimes(times, mod, spec)
	}

	var total float64
	for _, t := range spec.Tenants {
		total += t.Weight
	}
	events := make([]Arrival, len(timesUs))
	for i, tUs := range timesUs {
		ten := pickTenant(pick, spec.Tenants, total)
		events[i] = Arrival{
			Seq:         i,
			TUs:         tUs,
			Tenant:      ten.Name,
			Workload:    ten.Workload,
			Goal:        ten.Goal,
			HoldUs:      ten.HoldMs * 1000,
			GPUFraction: ten.GPUFraction,
		}
	}
	return &Trace{Spec: spec, Events: events}, nil
}

// expo draws an exponential inter-arrival time (seconds) at rate/sec.
func expo(src *rng.Source, rate float64) float64 {
	// 1-u is in (0,1]: Float64 returns [0,1), so the log argument is
	// never zero. u is rounded before the subtraction, so no target fuses
	// Float64's scaling into it (make arch-check), and unfusedLog is
	// math.Log with no fusable site on any target.
	return -unfusedLog(1-float64(src.Float64())) / rate
}

// pickTenant draws a tenant by cumulative weight.
func pickTenant(src *rng.Source, tenants []TenantSpec, total float64) TenantSpec {
	u := src.Float64() * total
	var cum float64
	for _, t := range tenants {
		cum += t.Weight
		if u < cum {
			return t
		}
	}
	return tenants[len(tenants)-1]
}

// poissonTimes draws a homogeneous Poisson arrival sequence.
func poissonTimes(src *rng.Source, rate float64, durationMs int64) []int64 {
	horizon := float64(durationMs) / 1000
	var out []int64
	for t := expo(src, rate); t < horizon; t += expo(src, rate) {
		out = append(out, int64(t*1e6))
	}
	return out
}

// diurnalTimes draws a sinusoid-modulated Poisson sequence by thinning:
// candidates arrive at the peak rate rate*(1+amp); each survives with
// probability lambda(t)/peak where lambda(t) = rate*(1+amp*sin(2*pi*
// t/period)). Thinning keeps the time stream independent of the accept
// stream.
func diurnalTimes(times, mod *rng.Source, spec GenSpec) []int64 {
	horizon := float64(spec.DurationMs) / 1000
	period := float64(spec.DiurnalPeriodMs) / 1000
	rate, amp := spec.RatePerSec, spec.DiurnalAmp
	peak := rate * (1 + amp)
	var out []int64
	for t := expo(times, peak); t < horizon; t += expo(times, peak) {
		lambda := rate * (1 + float64(amp*unfusedSin(2*math.Pi*t/period))) // rounded, never fused: make arch-check
		if mod.Float64()*peak < lambda {
			out = append(out, int64(t*1e6))
		}
	}
	return out
}

// burstyTimes draws a 2-state MMPP sequence. The burst-state rate is
// rate*BurstFactor; the calm-state rate is derived so the duty-weighted
// mean stays at rate (equal mean load vs. poisson): with
// fb = BurstMs/(BurstMs+CalmMs),
//
//	rate_calm = rate * (1 - BurstFactor*fb) / (1 - fb).
//
// State sojourns are exponential with means BurstMs/CalmMs; the walk
// starts calm (deterministic). An arrival candidate that would land
// past the current sojourn's end is re-drawn from the next state's
// rate at the boundary — the standard memoryless restart.
func burstyTimes(times, mod *rng.Source, spec GenSpec) []int64 {
	horizon := float64(spec.DurationMs) / 1000
	fb := spec.BurstMs / (spec.BurstMs + spec.CalmMs)
	rateBurst := spec.RatePerSec * spec.BurstFactor
	rateCalm := spec.RatePerSec * (1 - float64(spec.BurstFactor*fb)) / (1 - fb) // rounded, never fused: make arch-check

	var out []int64
	burst := false
	t := 0.0
	stateEnd := expo(mod, 1/(spec.CalmMs/1000))
	for {
		rate := rateCalm
		if burst {
			rate = rateBurst
		}
		next := t + expo(times, rate)
		if next >= stateEnd {
			// No arrival before the state flips; restart from the
			// boundary in the other state (exponential memorylessness
			// makes the discard exact, not an approximation).
			t = stateEnd
			if t >= horizon {
				return out
			}
			burst = !burst
			mean := spec.CalmMs / 1000
			if burst {
				mean = spec.BurstMs / 1000
			}
			stateEnd = t + expo(mod, 1/mean)
			continue
		}
		if next >= horizon {
			return out
		}
		t = next
		out = append(out, int64(t*1e6))
	}
}
