// Package kern models GPU kernels: their static resource demands, grid
// geometry, and a generated SIMT loop body that the simulator executes.
//
// A Profile is a behavioural description (instruction mix, dependence
// density, divergence, coalescing quality, cache reuse, barrier cadence,
// phase behaviour). Build expands a Profile into a concrete Kernel whose
// loop body is a deterministic function of the profile and a seed, so two
// simulations of the same workload are identical.
package kern

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/isa"
	"repro/internal/rng"
)

// Class is the coarse workload classification. ClassCompute and
// ClassMemory are the paper's (Section 4.2, Figure 7 groups pairs into
// C+C, C+M and M+M); ClassInfer and ClassRT extend the taxonomy to the
// open-world behavioural classes (serving-style inference with a
// latency SLO, real-time periodic with a hard deadline).
type Class uint8

const (
	// ClassCompute marks kernels limited by issue slots and ALU latency.
	ClassCompute Class = iota
	// ClassMemory marks kernels limited by memory bandwidth/latency.
	ClassMemory
	// ClassInfer marks serving-style inference kernels:
	// memory-bandwidth-bound, phase-bursty, carrying a latency SLO.
	ClassInfer
	// ClassRT marks real-time periodic kernels with a hard deadline.
	ClassRT
)

// String returns the class label: "C"/"M" matching the paper's figure
// labels, "I"/"R" for the open-world classes.
func (c Class) String() string {
	switch c {
	case ClassCompute:
		return "C"
	case ClassInfer:
		return "I"
	case ClassRT:
		return "R"
	default:
		return "M"
	}
}

// Profile describes a kernel's behaviour and shape.
type Profile struct {
	Name  string
	Class Class

	// Program shape.
	BodyInstrs int // instructions per loop iteration (before barriers)
	Iterations int // loop iterations per thread

	// Instruction mix, as fractions of BodyInstrs. The remainder after
	// memory/SFU/shared fractions is integer+float ALU work.
	FracGlobalMem float64 // global loads+stores
	FracStore     float64 // portion of global accesses that are stores
	FracShared    float64 // shared-memory accesses
	FracSFU       float64 // special-function ops

	// Timing behaviour.
	DepDensity     float64 // P(instruction depends on the previous one)
	DivergenceFrac float64 // mean fraction of lanes idled by divergence
	CoalesceDegree float64 // mean 128B transactions per warp access (1=ideal)
	ReuseFrac      float64 // P(global access falls in the hot region)

	// Memory footprint.
	HotBytes       int // cache-friendly region (per kernel)
	FootprintBytes int // streaming region (per kernel)

	// Barrier cadence: a barrier every BarrierEvery body instructions
	// (0 disables barriers). Kernels with inter-thread tiling (sgemm,
	// stencil) synchronize often; streaming kernels never do.
	BarrierEvery int

	// Phase behaviour: the kernel alternates between its base mix and a
	// memory-boosted mix every PhasePeriod iterations (0 disables).
	// This produces the epoch-to-epoch IPC variance that motivates the
	// paper's history/elastic/rollover schemes (Section 3.4).
	PhasePeriod   int
	PhaseMemBoost float64 // additive global-mem fraction during the phase

	// Geometry and static resources.
	ThreadsPerTB   int
	RegsPerThread  int // 4-byte registers per thread
	SharedMemPerTB int // bytes of scratchpad per TB
	GridTBs        int // TBs per launch
}

// Validate reports whether the profile is self-consistent.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("kern: profile needs a name")
	case p.BodyInstrs < 2:
		return fmt.Errorf("kern: %s: BodyInstrs %d < 2", p.Name, p.BodyInstrs)
	case p.Iterations <= 0:
		return fmt.Errorf("kern: %s: Iterations must be positive", p.Name)
	case int64(p.Iterations) > math.MaxInt32 || int64(p.BodyInstrs) > math.MaxInt32 || p.bodyLen() > math.MaxInt32:
		// A warp context (internal/sm) keeps its iteration and pc in 32 bits.
		return fmt.Errorf("kern: %s: Iterations %d or body length %d past %d", p.Name, p.Iterations, p.bodyLen(), math.MaxInt32)
	case p.FracGlobalMem < 0 || p.FracShared < 0 || p.FracSFU < 0:
		return fmt.Errorf("kern: %s: negative mix fraction", p.Name)
	case p.FracGlobalMem+p.FracShared+p.FracSFU > 0.95:
		return fmt.Errorf("kern: %s: mix fractions sum to >0.95", p.Name)
	case p.FracStore < 0 || p.FracStore > 1:
		return fmt.Errorf("kern: %s: FracStore out of [0,1]", p.Name)
	case p.DepDensity < 0 || p.DepDensity > 1:
		return fmt.Errorf("kern: %s: DepDensity out of [0,1]", p.Name)
	case p.DivergenceFrac < 0 || p.DivergenceFrac > 0.9:
		return fmt.Errorf("kern: %s: DivergenceFrac out of [0,0.9]", p.Name)
	case p.CoalesceDegree < 1 || p.CoalesceDegree > 32:
		return fmt.Errorf("kern: %s: CoalesceDegree out of [1,32]", p.Name)
	case p.ReuseFrac < 0 || p.ReuseFrac > 1:
		return fmt.Errorf("kern: %s: ReuseFrac out of [0,1]", p.Name)
	case p.HotBytes <= 0 || p.FootprintBytes <= 0:
		return fmt.Errorf("kern: %s: footprints must be positive", p.Name)
	case p.BarrierEvery < 0:
		return fmt.Errorf("kern: %s: BarrierEvery must be >= 0", p.Name)
	case p.ThreadsPerTB <= 0 || p.ThreadsPerTB%32 != 0 || p.ThreadsPerTB > 1024:
		return fmt.Errorf("kern: %s: ThreadsPerTB %d invalid", p.Name, p.ThreadsPerTB)
	case p.RegsPerThread <= 0 || p.RegsPerThread > 255:
		return fmt.Errorf("kern: %s: RegsPerThread %d invalid", p.Name, p.RegsPerThread)
	case p.SharedMemPerTB < 0:
		return fmt.Errorf("kern: %s: SharedMemPerTB negative", p.Name)
	case p.GridTBs <= 0:
		return fmt.Errorf("kern: %s: GridTBs must be positive", p.Name)
	case p.PhasePeriod < 0 || p.PhaseMemBoost < 0:
		return fmt.Errorf("kern: %s: phase parameters must be >= 0", p.Name)
	}
	return nil
}

// bodyLen is the length of the loop body generateBody builds: BodyInstrs
// instructions with a barrier before every BarrierEvery-th one after the first.
func (p Profile) bodyLen() int64 {
	n := int64(p.BodyInstrs)
	if p.BarrierEvery > 0 {
		n += int64(p.BodyInstrs-1) / int64(p.BarrierEvery)
	}
	return n
}

// Resources is the static per-TB resource demand used by SM admission.
type Resources struct {
	Threads  int
	RegBytes int
	ShmBytes int
	CtxBytes int // architectural context moved by a partial context switch
}

// Kernel is an executable kernel instance: a profile expanded into a
// concrete loop body plus identity used for address-space separation.
type Kernel struct {
	ID      int
	Profile Profile

	// Body is the per-iteration instruction sequence, shared by all
	// threads. BodyAlt is the memory-boosted variant used during phases.
	Body    []isa.Instr
	BodyAlt []isa.Instr

	seed uint64
}

// Build expands a profile into a Kernel. The body is generated with a
// deterministic stream derived from seed, so identical (profile, seed)
// pairs produce identical kernels. A non-nil prev is rebuilt in place,
// its body storage reused where large enough, exactly as a fresh kernel
// (nil) would be built; on error it is left as it was.
func Build(id int, p Profile, seed uint64, prev *Kernel) (*Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := prev
	if k == nil {
		k = new(Kernel)
	}
	// Body and BodyAlt share one buffer, BodyAlt after Body.
	body := generateBody(p, p.FracGlobalMem, rng.New(rng.Mix(seed, uint64(id)*2+1)), k.Body[:0])
	all := body
	if p.PhasePeriod > 0 {
		boosted := p.FracGlobalMem + p.PhaseMemBoost
		if max := 0.95 - p.FracShared - p.FracSFU; boosted > max {
			boosted = max
		}
		all = generateBody(p, boosted, rng.New(rng.Mix(seed, uint64(id)*2+2)), body)
	}
	*k = Kernel{ID: id, Profile: p, seed: seed, Body: all[:len(body)], BodyAlt: all[len(body):]}
	if p.PhasePeriod == 0 {
		k.BodyAlt = k.Body
	}
	return k, nil
}

// MustBuild is Build for static workload tables; it panics on invalid
// profiles, which indicates a programming error in the table itself.
func MustBuild(id int, p Profile, seed uint64) *Kernel {
	k, err := Build(id, p, seed, nil)
	if err != nil {
		panic(err)
	}
	return k
}

// generateBody appends one loop iteration to body. Instruction kinds are
// placed by thresholding a deterministic stream so the realized mix
// converges to the profile's fractions; barriers are inserted at the
// configured cadence.
func generateBody(p Profile, fracMem float64, src *rng.Source, body []isa.Instr) []isa.Instr {
	body = slices.Grow(body, int(p.bodyLen()))
	for i := 0; i < p.BodyInstrs; i++ {
		if p.BarrierEvery > 0 && i > 0 && i%p.BarrierEvery == 0 {
			body = append(body, isa.Instr{Op: isa.OpBarrier})
		}
		in := isa.Instr{DependsOnPrev: src.Float64() < p.DepDensity}
		r := src.Float64()
		switch {
		case r < fracMem:
			if src.Float64() < p.FracStore {
				in.Op = isa.OpStGlobal
			} else {
				in.Op = isa.OpLdGlobal
			}
			in.Transactions = sampleTransactions(p.CoalesceDegree, src)
			in.Reuse = src.Float64() < p.ReuseFrac
		case r < fracMem+p.FracShared:
			if src.Float64() < 0.5 {
				in.Op = isa.OpLdShared
			} else {
				in.Op = isa.OpStShared
			}
		case r < fracMem+p.FracShared+p.FracSFU:
			in.Op = isa.OpSFU
		case p.DivergenceFrac > 0 && src.Float64() < 0.08:
			in.Op = isa.OpBranch
			in.Divergent = src.Float64() < 0.5
			in.DependsOnPrev = true
		case src.Float64() < 0.5:
			in.Op = isa.OpFAlu
		default:
			in.Op = isa.OpIAlu
		}
		body = append(body, in)
	}
	return body
}

// sampleTransactions draws a per-instruction transaction count whose mean
// matches the profile's coalescing degree: perfectly coalesced kernels
// always produce 1, scattered kernels mix small and large counts.
func sampleTransactions(mean float64, src *rng.Source) uint8 {
	if mean <= 1 {
		return 1
	}
	// Draw uniformly from [1, 2*mean-1] so E[t] == mean.
	hi := int(2*mean) - 1
	if hi < 1 {
		hi = 1
	}
	t := 1 + src.Intn(hi)
	if t > 32 {
		t = 32
	}
	return uint8(t)
}

// WarpsPerTB returns the number of 32-thread warps per thread block.
func (k *Kernel) WarpsPerTB() int { return (k.Profile.ThreadsPerTB + 31) / 32 }

// Boosted reports whether the given loop iteration falls in a memory-
// boosted phase: the kernel alternates base/boosted every PhasePeriod
// iterations.
func (k *Kernel) Boosted(iter int) bool {
	p := &k.Profile
	return p.PhasePeriod > 0 && (iter/p.PhasePeriod)%2 == 1
}

// TBResources returns the static per-TB demand.
func (k *Kernel) TBResources() Resources {
	p := &k.Profile
	return Resources{
		Threads:  p.ThreadsPerTB,
		RegBytes: p.ThreadsPerTB * p.RegsPerThread * 4,
		ShmBytes: p.SharedMemPerTB,
		CtxBytes: p.ThreadsPerTB * (p.RegsPerThread*4 + 16), // regs + PC/pred metadata
	}
}

// AddrBase returns the base of this kernel's address space. Kernels get
// disjoint 1TB windows so they contend in caches without aliasing.
func (k *Kernel) AddrBase() uint64 { return uint64(k.ID+1) << 40 }

// GlobalAddr computes the deterministic address of a global access by
// (warp global id, iteration, pc, transaction index). Reuse accesses fall
// in the hot region; streaming accesses walk the full footprint.
func (k *Kernel) GlobalAddr(warpGID uint64, iter, pc, tx int, reuse bool) uint64 {
	h := rng.Hash64(k.seed ^ warpGID<<32 ^ uint64(iter)<<16 ^ uint64(pc)<<4 ^ uint64(tx))
	region := uint64(k.Profile.FootprintBytes)
	if reuse {
		region = uint64(k.Profile.HotBytes)
	}
	// Align to 128B transactions.
	off := (h % region) &^ 127
	return k.AddrBase() + off
}

// String implements fmt.Stringer.
func (k *Kernel) String() string {
	return fmt.Sprintf("%s(#%d,%s)", k.Profile.Name, k.ID, k.Profile.Class)
}
