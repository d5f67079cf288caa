package schema

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Goal is the typed union of the QoS goal forms the system accepts,
// replacing the ad-hoc "at most one of goal_frac / goal_ipc / deadline"
// field triples that request decoding and sweep specs used to validate
// independently. A Goal is exactly one of:
//
//   - none:     best effort, no QoS target (the zero value)
//   - frac:     a fraction of isolated IPC in (0,1] — the paper's sweep axis
//   - ipc:      an absolute thread-IPC target
//   - deadline: an application deadline lowered to an IPC target per
//     GPU config (core.ResolveGoal)
//   - latency:  a serving-style per-request latency SLO at a tail
//     percentile (LLM-inference contracts)
//   - periodic: a real-time activation contract — Instrs per period,
//     each activation due within its relative deadline
//
// The JSON encoding keeps the fraction form a bare number
// ("goals":[0.5,0.9]), as journals and arrival traces have always
// written it: a frac goal marshals as a bare number and a bare number
// unmarshals as a frac goal. The other forms are single-key
// objects: {"ipc":2.5}, {"deadline":{...}}, {"latency":{...}} and
// {"periodic":{...}}. null (or an omitted field) is the none form.

// Goal kind values of Goal.Kind.
const (
	GoalNone     = ""
	GoalFrac     = "frac"
	GoalIPC      = "ipc"
	GoalDeadline = "deadline"
	GoalLatency  = "latency"
	GoalPeriodic = "periodic"
)

// ErrBadGoal marks a structurally invalid goal: more than one form set,
// a fraction outside (0,1], a non-positive IPC target, or a deadline
// with no instruction count or time budget.
var ErrBadGoal = errors.New("schema: invalid goal")

// Deadline is the OS-scheduler form of a QoS goal (paper Section 3.2):
// run Instrs thread instructions within Seconds of end-to-end time.
// When TransferBytes is set, the PCI-E input-transfer component is
// subtracted from the budget before the IPC target is derived; Gbps
// defaults to 15.75 (PCIe 3.0 x16) and latency to 10us.
type Deadline struct {
	Instrs        int64   `json:"instrs"`
	Seconds       float64 `json:"seconds"`
	TransferBytes int64   `json:"transfer_bytes,omitempty"`
	PCIeGbps      float64 `json:"pcie_gbps,omitempty"`
	PCIeLatency   float64 `json:"pcie_latency_s,omitempty"`
}

// Latency is the serving-SLO form of a QoS goal, the contract of
// LLM-inference-style workloads: every request of Instrs thread
// instructions must complete within Seconds at the Percentile tail.
// Percentile 0 defaults to 0.99; valid values are [0.5, 1). The
// lowering (core.ResolveGoal) derives a mean-IPC target from the
// per-request bound plus a tail-headroom allowance for epoch-to-epoch
// IPC variance under sharing.
type Latency struct {
	Instrs     int64   `json:"instrs"`
	Seconds    float64 `json:"seconds"`
	Percentile float64 `json:"percentile,omitempty"`
}

// Periodic is the real-time form of a QoS goal (contention-aware
// real-time GPU partitioning): an activation of Instrs thread
// instructions is released every PeriodS seconds and must finish within
// DeadlineS of its release. DeadlineS 0 means an implicit deadline
// equal to the period; constrained deadlines (DeadlineS < PeriodS)
// tighten the derived IPC target.
type Periodic struct {
	Instrs    int64   `json:"instrs"`
	PeriodS   float64 `json:"period_s"`
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// Goal is one QoS target. The zero value is the none (best-effort)
// form. Construct non-zero goals with the form constructors
// (FracGoal/IPCGoal/DeadlineGoal/LatencyGoal/PeriodicGoal) so Kind and
// the payload field can never disagree.
type Goal struct {
	Kind     string
	Frac     float64
	IPC      float64
	Deadline Deadline
	Latency  Latency
	Periodic Periodic
}

// FracGoal returns the fraction-of-isolated-IPC form.
func FracGoal(f float64) Goal { return Goal{Kind: GoalFrac, Frac: f} }

// IPCGoal returns the absolute thread-IPC form.
func IPCGoal(ipc float64) Goal { return Goal{Kind: GoalIPC, IPC: ipc} }

// DeadlineGoal returns the application-deadline form.
func DeadlineGoal(d Deadline) Goal { return Goal{Kind: GoalDeadline, Deadline: d} }

// LatencyGoal returns the serving latency-SLO form.
func LatencyGoal(l Latency) Goal { return Goal{Kind: GoalLatency, Latency: l} }

// PeriodicGoal returns the real-time periodic form.
func PeriodicGoal(p Periodic) Goal { return Goal{Kind: GoalPeriodic, Periodic: p} }

// IsZero reports the none (best-effort) form. json omitzero hook.
func (g Goal) IsZero() bool { return g.Kind == GoalNone }

// Validate checks the invariants of whichever form is set.
func (g Goal) Validate() error {
	switch g.Kind {
	case GoalNone:
		return nil
	case GoalFrac:
		if g.Frac <= 0 || g.Frac > 1 {
			return fmt.Errorf("%w: goal fraction %v outside (0,1]", ErrBadGoal, g.Frac)
		}
	case GoalIPC:
		if g.IPC <= 0 {
			return fmt.Errorf("%w: IPC target %v must be positive", ErrBadGoal, g.IPC)
		}
	case GoalDeadline:
		if g.Deadline.Instrs <= 0 {
			return fmt.Errorf("%w: deadline needs a positive instruction count", ErrBadGoal)
		}
		if g.Deadline.Seconds <= 0 {
			return fmt.Errorf("%w: deadline needs a positive time budget", ErrBadGoal)
		}
	case GoalLatency:
		if g.Latency.Instrs <= 0 {
			return fmt.Errorf("%w: latency SLO needs a positive per-request instruction count", ErrBadGoal)
		}
		if g.Latency.Seconds <= 0 {
			return fmt.Errorf("%w: latency SLO needs a positive time bound", ErrBadGoal)
		}
		if p := g.Latency.Percentile; p != 0 && (p < 0.5 || p >= 1) {
			return fmt.Errorf("%w: latency percentile %v outside [0.5,1)", ErrBadGoal, p)
		}
	case GoalPeriodic:
		if g.Periodic.Instrs <= 0 {
			return fmt.Errorf("%w: periodic goal needs a positive per-activation instruction count", ErrBadGoal)
		}
		if g.Periodic.PeriodS <= 0 {
			return fmt.Errorf("%w: periodic goal needs a positive period", ErrBadGoal)
		}
		if d := g.Periodic.DeadlineS; d < 0 || d > g.Periodic.PeriodS {
			return fmt.Errorf("%w: periodic deadline %v outside (0,period]", ErrBadGoal, d)
		}
	default:
		return fmt.Errorf("%w: unknown goal kind %q", ErrBadGoal, g.Kind)
	}
	return nil
}

// GoalFromForms lowers the legacy v1 field triple (goal_frac, goal_ipc,
// deadline pointer) into the union, enforcing the "at most one form"
// rule that used to live in the server's request decoder.
func GoalFromForms(frac, ipc float64, dl *Deadline) (Goal, error) {
	forms := 0
	if frac != 0 {
		forms++
	}
	if ipc != 0 {
		forms++
	}
	if dl != nil {
		forms++
	}
	if forms > 1 {
		return Goal{}, fmt.Errorf("%w: set at most one of goal_frac, goal_ipc, deadline", ErrBadGoal)
	}
	switch {
	case frac != 0:
		return FracGoal(frac), nil
	case ipc != 0:
		return IPCGoal(ipc), nil
	case dl != nil:
		return DeadlineGoal(*dl), nil
	}
	return Goal{}, nil
}

// goalObject is the object encoding of the non-frac forms.
type goalObject struct {
	Frac     *float64  `json:"frac,omitempty"`
	IPC      *float64  `json:"ipc,omitempty"`
	Deadline *Deadline `json:"deadline,omitempty"`
	Latency  *Latency  `json:"latency,omitempty"`
	Periodic *Periodic `json:"periodic,omitempty"`
}

// MarshalJSON encodes frac goals as bare numbers (see the package doc),
// the other forms as single-key objects, and none as null.
func (g Goal) MarshalJSON() ([]byte, error) {
	switch g.Kind {
	case GoalNone:
		return []byte("null"), nil
	case GoalFrac:
		return json.Marshal(g.Frac)
	case GoalIPC:
		return json.Marshal(goalObject{IPC: &g.IPC})
	case GoalDeadline:
		return json.Marshal(goalObject{Deadline: &g.Deadline})
	case GoalLatency:
		return json.Marshal(goalObject{Latency: &g.Latency})
	case GoalPeriodic:
		return json.Marshal(goalObject{Periodic: &g.Periodic})
	}
	return nil, fmt.Errorf("%w: unknown goal kind %q", ErrBadGoal, g.Kind)
}

// UnmarshalJSON accepts a bare number (frac), null (none), or an object
// carrying exactly one of "frac", "ipc", "deadline", "latency",
// "periodic". It decodes b once, dispatching on its first non-space
// byte: an object straight into its typed form, anything else into a
// probe value. Only an object that fails its typed decode is probed too,
// so an object the probe refuses (not JSON, a number out of range) fails
// with the probe's error, whatever its form.
func (g *Goal) UnmarshalJSON(b []byte) error {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	if i < len(b) && b[i] == '{' {
		return g.unmarshalObject(b)
	}
	var probe any
	if err := json.Unmarshal(b, &probe); err != nil {
		return err
	}
	switch f := probe.(type) {
	case nil:
		*g = Goal{}
		return nil
	case float64:
		*g = FracGoal(f)
		return nil
	}
	return fmt.Errorf("%w: goal must be a number, null, or a one-key object", ErrBadGoal)
}

// unmarshalObject is UnmarshalJSON for b that starts with '{'.
func (g *Goal) unmarshalObject(b []byte) error {
	var obj goalObject
	if err := DecodeStrict(b, &obj); err != nil {
		var probe any
		if perr := json.Unmarshal(b, &probe); perr != nil {
			return perr
		}
		return fmt.Errorf("%w: %v", ErrBadGoal, err)
	}
	forms := 0
	if obj.Frac != nil {
		forms++
	}
	if obj.IPC != nil {
		forms++
	}
	if obj.Deadline != nil {
		forms++
	}
	if obj.Latency != nil {
		forms++
	}
	if obj.Periodic != nil {
		forms++
	}
	if forms != 1 {
		return fmt.Errorf("%w: goal object must carry exactly one of frac, ipc, deadline, latency, periodic", ErrBadGoal)
	}
	switch {
	case obj.Frac != nil:
		*g = FracGoal(*obj.Frac)
	case obj.IPC != nil:
		*g = IPCGoal(*obj.IPC)
	case obj.Deadline != nil:
		*g = DeadlineGoal(*obj.Deadline)
	case obj.Latency != nil:
		*g = LatencyGoal(*obj.Latency)
	default:
		*g = PeriodicGoal(*obj.Periodic)
	}
	return nil
}
