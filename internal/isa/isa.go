// Package isa defines the miniature SIMT instruction set executed by the
// simulator.
//
// Kernels are not real PTX/SASS programs: each kernel carries a generated
// "loop body" of Instr descriptors that every thread iterates a fixed
// number of times. The descriptors carry exactly the information the
// timing model needs — operation class, dependence on the previous
// instruction, and memory behaviour — and nothing else, which keeps
// instruction issue extremely cheap.
package isa

import "fmt"

// Op is the operation class of an instruction.
type Op uint8

// Operation classes. The split follows what the timing and power models
// distinguish: integer/float ALU, special function unit, the three memory
// spaces, barriers and control flow.
const (
	OpIAlu Op = iota // integer arithmetic/logic
	OpFAlu           // single-precision floating point
	OpSFU            // transcendental / special function
	OpLdGlobal
	OpStGlobal
	OpLdShared
	OpStShared
	OpBarrier
	OpBranch
	numOps
)

var opNames = [numOps]string{
	"ialu", "falu", "sfu", "ld.global", "st.global", "ld.shared", "st.shared", "bar", "bra",
}

// String returns the assembly-style mnemonic of the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsGlobalMem reports whether the op accesses device (global) memory.
func (o Op) IsGlobalMem() bool { return o == OpLdGlobal || o == OpStGlobal }

// Instr is one instruction descriptor in a kernel's loop body.
//
// Memory instructions generate addresses as a pure function of
// (warp identity, iteration, instruction index), so replaying a warp is
// deterministic regardless of scheduling order. Reuse selects between a
// small hot region (cache-friendly) and the kernel's full streaming
// footprint; Transactions is the post-coalescing transaction count for a
// fully active warp.
type Instr struct {
	Op            Op
	DependsOnPrev bool // true: must wait for the previous result latency

	// Memory behaviour (global memory ops only).
	Transactions uint8 // coalesced 128B transactions per warp access, 1..WarpSize
	Reuse        bool  // address falls in the kernel's hot region

	// Control behaviour (branch ops only).
	Divergent bool // branch deactivates some lanes for the rest of the iter
}

// Validate reports whether the descriptor is well formed.
func (in Instr) Validate() error {
	if in.Op >= numOps {
		return fmt.Errorf("isa: invalid op %d", uint8(in.Op))
	}
	if in.Op.IsGlobalMem() {
		if in.Transactions == 0 || in.Transactions > 32 {
			return fmt.Errorf("isa: %v has %d transactions, want 1..32", in.Op, in.Transactions)
		}
	} else if in.Transactions != 0 {
		return fmt.Errorf("isa: %v must not set Transactions", in.Op)
	}
	if in.Divergent && in.Op != OpBranch {
		return fmt.Errorf("isa: %v must not set Divergent", in.Op)
	}
	return nil
}
