package fleet

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/schema"
)

// Request is one fractional-GPU job submission (the POST /v2/jobs
// body), modeled on the request vocabulary of real fractional-GPU
// schedulers (HAMi vGPU shares, KAI/volcano gpu-fraction /
// vgpu-cores / vgpu-memory annotations):
//
//   - gpu_fraction f ∈ (0,1] asks for f of a whole device — both
//     compute and memory-system share.
//   - vgpu_cores c ∈ (0,100] asks for c percent of the device's SMs
//     (compute share) only.
//   - vgpu_memory m ∈ (0,100] asks for m percent of the device's
//     bandwidth/cache (memory-system share) only.
//
// gpu_fraction is exclusive with the vgpu_* pair (it is both of them at
// once); vgpu_cores and vgpu_memory may be combined, and a dimension
// left unset is unconstrained. Exactly like the v1 API, the optional
// goal attaches a QoS contract the per-node admission check must prove
// feasible before the job may share a device.
type Request struct {
	// Name is an optional client label echoed back in views and events.
	Name string `json:"name,omitempty"`
	// Workload names a benchmark from internal/workloads.
	Workload string `json:"workload"`
	// Goal is the typed QoS goal union (bare fraction, {"ipc":..} or
	// {"deadline":{..}}); absent means best effort. Deadline goals are
	// resolved per node: a heterogeneous fleet derives a different IPC
	// target on every device configuration.
	Goal *schema.Goal `json:"goal,omitempty"`
	// GPUFraction is the whole-device share in (0,1].
	GPUFraction float64 `json:"gpu_fraction,omitempty"`
	// VGPUCores is the compute (SM) share in percent, (0,100].
	VGPUCores float64 `json:"vgpu_cores,omitempty"`
	// VGPUMemory is the memory-system share in percent, (0,100].
	VGPUMemory float64 `json:"vgpu_memory,omitempty"`
	// Scheme optionally pins the expected QoS scheme; it must match the
	// fleet's configured scheme.
	Scheme string `json:"scheme,omitempty"`
}

// Shares is a request lowered to per-device capacity fractions: how
// much of one node's SMs and memory system the job reserves for the
// bin-packing dimension of placement. A zero dimension is
// unconstrained (the job competes there under the QoS scheme alone).
type Shares struct {
	SM  float64 `json:"sm"`
	Mem float64 `json:"mem"`
}

// readRequest reads a Request on the schema.Cursor fast path; c is nil
// for an absent one.
func readRequest(c *schema.Cursor) Request {
	if c == nil {
		return Request{}
	}
	var r Request
	c.Open()
	r.Name = c.Opt("name").String()
	r.Workload = c.Key("workload").String()
	if g := c.Opt("goal"); g != nil {
		goal := schema.ReadGoal(g)
		r.Goal = &goal
	}
	r.GPUFraction = c.Opt("gpu_fraction").Float()
	r.VGPUCores = c.Opt("vgpu_cores").Float()
	r.VGPUMemory = c.Opt("vgpu_memory").Float()
	r.Scheme = c.Opt("scheme").String()
	c.Close()
	return r
}

// readShares reads Shares on the schema.Cursor fast path; c is nil for
// absent ones.
func readShares(c *schema.Cursor) Shares {
	if c == nil {
		return Shares{}
	}
	var s Shares
	c.Open()
	s.SM = c.Key("sm").Float()
	s.Mem = c.Key("mem").Float()
	c.Close()
	return s
}

// shares validates the fractional vocabulary and lowers it.
func (r Request) shares() (Shares, error) {
	if r.GPUFraction != 0 {
		if r.VGPUCores != 0 || r.VGPUMemory != 0 {
			return Shares{}, fmt.Errorf("%w: gpu_fraction is exclusive with vgpu_cores/vgpu_memory (it sets both)", ErrBadRequest)
		}
		if r.GPUFraction < 0 || r.GPUFraction > 1 {
			return Shares{}, fmt.Errorf("%w: gpu_fraction %v outside (0,1]", ErrBadRequest, r.GPUFraction)
		}
		return Shares{SM: r.GPUFraction, Mem: r.GPUFraction}, nil
	}
	if r.VGPUCores == 0 && r.VGPUMemory == 0 {
		return Shares{}, fmt.Errorf("%w: set gpu_fraction, vgpu_cores or vgpu_memory", ErrBadRequest)
	}
	if r.VGPUCores < 0 || r.VGPUCores > 100 {
		return Shares{}, fmt.Errorf("%w: vgpu_cores %v outside (0,100]", ErrBadRequest, r.VGPUCores)
	}
	if r.VGPUMemory < 0 || r.VGPUMemory > 100 {
		return Shares{}, fmt.Errorf("%w: vgpu_memory %v outside (0,100]", ErrBadRequest, r.VGPUMemory)
	}
	return Shares{SM: r.VGPUCores / 100, Mem: r.VGPUMemory / 100}, nil
}

// goal returns the typed goal (zero value when absent).
func (r Request) goal() schema.Goal {
	if r.Goal == nil {
		return schema.Goal{}
	}
	return *r.Goal
}

// SpecFor lowers the request to the kernel spec one node would
// evaluate, resolving deadline goals against that node's device
// configuration.
func (r Request) SpecFor(cfg config.GPU) (core.KernelSpec, error) {
	gf, gi, err := core.ResolveGoal(cfg, r.goal())
	if err != nil {
		return core.KernelSpec{}, err
	}
	return core.KernelSpec{Workload: r.Workload, GoalFrac: gf, GoalIPC: gi}, nil
}

// validate checks everything that does not depend on a node: workload
// presence, the share vocabulary, the goal form, and the scheme pin.
func (f *Fleet) validate(r Request) (Shares, error) {
	if r.Workload == "" {
		return Shares{}, fmt.Errorf("%w: workload is required", ErrBadRequest)
	}
	sh, err := r.shares()
	if err != nil {
		return Shares{}, err
	}
	if err := r.goal().Validate(); err != nil {
		return Shares{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if r.Scheme != "" {
		sc, err := core.ParseScheme(r.Scheme)
		if err != nil {
			return Shares{}, err
		}
		if sc != f.scheme {
			return Shares{}, fmt.Errorf("%w: fleet evaluates scheme %q, request pinned %q",
				ErrBadRequest, f.scheme.Name(), sc.Name())
		}
	}
	return sh, nil
}
