package schema

// The first-class admission verdict shared by every surface that used
// to carry ad-hoc status fields: POST/GET /v1/jobs responses, SSE
// "verdict" events, and the decision journal (internal/server). One
// struct here means the wire form, the crash log and the replay tooling
// can never drift apart, and the version constant above governs all of
// them at once.

// Decision values of Verdict.Decision.
const (
	DecisionAdmit  = "admit"
	DecisionReject = "reject"
)

// Tier values of Verdict.Tier: which stage of the decision path produced
// the verdict.
const (
	// TierCache is an exact hit in the canonical mix-signature cache.
	TierCache = "cache"
	// TierModel named the analytic performance model, which was removed
	// after an audit against the simulator. No tier emits it; it stays
	// because the benchmark still reads its (empty) stats row.
	TierModel = "model"
	// TierSim is the full what-if co-run simulation (what a cache miss
	// runs, and the only tier when the fast path is disabled).
	TierSim = "sim"
)

// Decision returns the Decision string for an admit/reject boolean.
func Decision(admitted bool) string {
	if admitted {
		return DecisionAdmit
	}
	return DecisionReject
}

// KernelOutcome is one kernel's result inside an admission verdict: the
// what-if simulation's core.KernelResult for that kernel.
type KernelOutcome struct {
	JobID          string  `json:"job_id,omitempty"`
	Workload       string  `json:"workload"`
	IsQoS          bool    `json:"is_qos"`
	GoalIPC        float64 `json:"goal_ipc,omitempty"`
	IPC            float64 `json:"ipc"`
	IsolatedIPC    float64 `json:"isolated_ipc"`
	Reached        bool    `json:"reached"`
	GoalRatio      float64 `json:"goal_ratio,omitempty"`
	NormThroughput float64 `json:"norm_throughput,omitempty"`
}

// Verdict is the admission decision with its evidence and provenance:
// what was decided, which tier decided it, how confident the deciding
// tier was, and the per-kernel outcome of the hypothetical mix
// (incumbents plus the candidate, candidate last).
type Verdict struct {
	// Decision is "admit" or "reject".
	Decision string `json:"decision"`
	// Tier records which tier decided: "cache" or "sim".
	Tier string `json:"tier"`
	// Confidence is 1: every verdict rests on simulation evidence, a
	// cache hit on the run that seeded it.
	Confidence float64 `json:"confidence"`
	// ModelVersion is never set now that no analytic model decides; the
	// field stays so the wire schema does not change.
	ModelVersion string `json:"model_version,omitempty"`
	// EvidenceRef names the canonical mix signature the verdict was
	// decided (and cached) under, as "sig:<prefix>".
	EvidenceRef string `json:"evidence_ref,omitempty"`
	Reason      string `json:"reason"`
	Scheme      string `json:"scheme"`
	// MixBefore lists the ids of the jobs admitted when the decision ran.
	MixBefore  []string        `json:"mix_before"`
	Candidate  KernelOutcome   `json:"candidate"`
	Incumbents []KernelOutcome `json:"incumbents,omitempty"`
	// Cycles is the simulated measurement window of the what-if run
	// backing the verdict.
	Cycles int64 `json:"cycles"`
}

// IsAdmitted reports whether the verdict admits the candidate.
func (v *Verdict) IsAdmitted() bool { return v.Decision == DecisionAdmit }

// ReadVerdict reads a verdict on the Cursor's fast path; c is nil for an
// absent one.
func ReadVerdict(c *Cursor) *Verdict {
	if c == nil {
		return nil
	}
	v := &Verdict{}
	c.Open()
	v.Decision = c.Key("decision").String()
	v.Tier = c.Key("tier").String()
	v.Confidence = c.Key("confidence").Float()
	v.ModelVersion = c.Opt("model_version").String()
	v.EvidenceRef = c.Opt("evidence_ref").String()
	v.Reason = c.Key("reason").String()
	v.Scheme = c.Key("scheme").String()
	if !c.Key("mix_before").Null() {
		v.MixBefore = ReadArray(c, (*Cursor).String)
	}
	v.Candidate = ReadKernelOutcome(c.Key("candidate"))
	v.Incumbents = ReadArray(c.Opt("incumbents"), ReadKernelOutcome)
	v.Cycles = c.Key("cycles").Int64()
	c.Close()
	return v
}

// ReadKernelOutcome reads a kernel outcome on the Cursor's fast path.
func ReadKernelOutcome(c *Cursor) KernelOutcome {
	if c == nil {
		return KernelOutcome{}
	}
	var o KernelOutcome
	c.Open()
	o.JobID = c.Opt("job_id").String()
	o.Workload = c.Key("workload").String()
	o.IsQoS = c.Key("is_qos").Bool()
	o.GoalIPC = c.Opt("goal_ipc").Float()
	o.IPC = c.Key("ipc").Float()
	o.IsolatedIPC = c.Key("isolated_ipc").Float()
	o.Reached = c.Key("reached").Bool()
	o.GoalRatio = c.Opt("goal_ratio").Float()
	o.NormThroughput = c.Opt("norm_throughput").Float()
	c.Close()
	return o
}
