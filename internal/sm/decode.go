package sm

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kern"
)

// decoded is one instruction of a kernel body with what issuing it would
// otherwise re-derive from the program text every time it runs.
type decoded struct {
	isa.Instr
	// delay, when not zero, is all that issuing does to the warp: ready
	// again delay cycles later, at the next instruction of the same body.
	// It is set for a fixed-latency instruction (ALU, SFU, shared memory,
	// uniform branch) that is not the last of its body and whose delay —
	// the result latency if the successor depends on it, the pipeline
	// backoff if not — fits the maturity wheel. config.GPU.Validate keeps
	// latencies >= 1, so zero is free to mean "take the general path".
	delay  int64
	ld, st uint64 // all ones iff the instruction is a global load / store
}

// Program is a kernel decoded for one configuration. It is immutable:
// every SM of a GPU shares the same one.
type Program struct {
	kernel    *kern.Kernel
	body, alt []decoded // kernel.Body, kernel.BodyAlt
}

// MaxKernels is how many kernels can co-run: a completion tag is slot+1 in
// 8 bits, so a slot also fits a warp context's one-byte field.
const MaxKernels = tagMask

// Decode prepares the co-running kernels for SMs of the given
// configuration (New). It fails past MaxKernels.
func Decode(cfg config.GPU, kernels []*kern.Kernel) ([]*Program, error) {
	if len(kernels) > MaxKernels {
		return nil, fmt.Errorf("sm: %d co-running kernels, at most %d supported", len(kernels), MaxKernels)
	}
	progs := make([]*Program, len(kernels))
	for i, k := range kernels {
		p := &Program{kernel: k, body: decode(&cfg, k.Body)}
		p.alt = p.body
		if k.Profile.PhasePeriod > 0 {
			p.alt = decode(&cfg, k.BodyAlt)
		}
		progs[i] = p
	}
	return progs, nil
}

func decode(cfg *config.GPU, text []isa.Instr) []decoded {
	body := make([]decoded, len(text))
	for pc, in := range text {
		d := &body[pc]
		d.Instr = in
		switch {
		case in.Op == isa.OpLdGlobal:
			d.ld = ^uint64(0)
		case in.Op == isa.OpStGlobal:
			d.st = ^uint64(0)
		case in.Op == isa.OpBarrier || in.Divergent || pc+1 == len(text):
			// No delay: a rendezvous, lane bookkeeping, the back-edge.
		case !text[pc+1].DependsOnPrev:
			d.delay = cfg.IssueBackoff
		default:
			d.delay = latency(cfg, in.Op)
		}
		if d.delay >= wheelSlots {
			d.delay = 0
		}
	}
	return body
}

// latency returns the result latency of a fixed-latency instruction.
func latency(cfg *config.GPU, op isa.Op) int64 {
	switch op {
	case isa.OpSFU:
		return cfg.SFULatency
	case isa.OpLdShared, isa.OpStShared:
		return cfg.SharedMemLat
	}
	return cfg.ALULatency
}

// bodyFor returns the decoded body a warp executes on the given loop
// iteration.
func (p *Program) bodyFor(iter int) []decoded {
	if p.kernel.Boosted(iter) {
		return p.alt
	}
	return p.body
}
