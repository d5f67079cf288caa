package verdict

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/schema"
)

// The tiered decision path, shared by the qosd decision loop, the
// serial Replayer and every node of a fleet: one call, Decider.Decide.
// Tier 1 is the exact verdict cache: a canonical mix signature either
// hits a decided verdict or misses. Tier 2 is the analytic performance
// model (internal/perfmodel): an instant interpolated prediction,
// trusted only when every QoS goal ratio lands clearly outside the
// uncertainty band. Tier 3 is the full what-if simulation, which the
// caller supplies as a function — the Decider calls it only when the
// fast tiers fall through, scores its result and caches the verdict.
//
// Determinism contract: all mutation happens on one goroutine per
// Decider (a decision loop, a node's placement evaluations, or a
// replayer), in decision order, so a serial replay of a decision log
// evolves an identical cache and reproduces every verdict — and its
// deciding tier — bit for bit. Restore is the same evolution without
// the deciding: recovery feeds it the logged verdicts, so a restarted
// owner continues with the cache the stopped one had.

// DefaultCacheSize bounds the exact-verdict cache when the fast path is
// enabled and DeciderConfig.CacheSize is zero.
const DefaultCacheSize = 4096

// DefaultUncertaintyBand is the model tier's goal-ratio margin when
// DeciderConfig.UncertaintyBand is zero: predictions within ±5% of a
// goal boundary escape to simulation.
const DefaultUncertaintyBand = 0.05

// DeciderConfig is the fast-path half of a daemon or node config.
type DeciderConfig struct {
	// FastPath enables tiers 1 and 2; off, every decision simulates.
	FastPath bool
	// Model is the optional analytic tier; requires FastPath and must be
	// fit under the session's exact config hash and scheme.
	Model *perfmodel.Model
	// UncertaintyBand overrides DefaultUncertaintyBand when positive.
	UncertaintyBand float64
	// CacheSize overrides DefaultCacheSize when positive.
	CacheSize int
	// Scheme is the (already defaulted) QoS scheme the owner evaluates
	// under: what Decide hands sim for any mix with a goal to protect,
	// and what the model fit's scheme is checked against.
	Scheme core.Scheme
}

// Decider decides admissions for one simulator session: Decide for a
// live or replayed decision, Restore for one read back from a journal.
// The owner supplies the simulation (a pooled traced run in the /v1
// loop, a plain Session.Run in a fleet node and the Replayer); the tier
// protocol around it lives here and nowhere else.
type Decider struct {
	enabled bool
	scheme  core.Scheme
	cache   *Cache
	model   *perfmodel.Model
	band    float64
	// cfgHash binds signatures to the exact simulator configuration and
	// seed (perfmodel.ConfigHash).
	cfgHash string
}

// NewDecider validates a fast-path config against the session it will
// decide for and returns the decider bound to that session's config
// hash.
func NewDecider(sess *core.Session, dc DeciderConfig) (*Decider, error) {
	cfgHash, err := perfmodel.ConfigHash(sess.Config(), sess.Seed())
	if err != nil {
		return nil, err
	}
	d := &Decider{enabled: dc.FastPath, scheme: dc.Scheme, band: dc.UncertaintyBand, cfgHash: cfgHash}
	if d.band <= 0 {
		d.band = DefaultUncertaintyBand
	}
	if !dc.FastPath {
		if dc.Model != nil {
			return nil, errors.New("verdict: DeciderConfig.Model requires FastPath")
		}
		return d, nil
	}
	size := dc.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	d.cache = NewCache(size)
	if dc.Model != nil {
		if got := dc.Model.ConfigHash(); got != cfgHash {
			return nil, fmt.Errorf("verdict: model fit bound to config %.12s…, session runs %.12s… (refit under this device/window/seed)",
				got, cfgHash)
		}
		if sc := dc.Model.Scheme(); sc != "" && sc != dc.Scheme.Name() {
			return nil, fmt.Errorf("verdict: model fit swept under scheme %q, decisions evaluate %q", sc, dc.Scheme.Name())
		}
		d.model = dc.Model
	}
	return d, nil
}

// Enabled reports whether the fast tiers are on.
func (d *Decider) Enabled() bool { return d.enabled }

// Band returns the model tier's uncertainty band.
func (d *Decider) Band() float64 { return d.band }

// Model returns the analytic tier's model (nil when absent).
func (d *Decider) Model() *perfmodel.Model { return d.model }

// ConfigHash returns the session config hash signatures are bound to.
func (d *Decider) ConfigHash() string { return d.cfgHash }

// CacheLen and CacheCap report the verdict cache's occupancy and
// capacity; both are 0 when the fast path is off.
func (d *Decider) CacheLen() int {
	if d.cache == nil {
		return 0
	}
	return d.cache.Len()
}

func (d *Decider) CacheCap() int {
	if d.cache == nil {
		return 0
	}
	return d.cache.Cap()
}

// Decide returns the admission verdict for the hypothetical mix specs
// (incumbents first, candidate last; ids names the jobs in the same
// order): effective scheme, signature, exact cache, model, and only when
// those fall through sim — called at most once, with the scheme the
// what-if must run under — whose result is scored and cached. A sim
// error is returned as is and caches nothing. The FastResult is set on
// every return, error included, so owners can keep their counters.
func (d *Decider) Decide(specs []core.KernelSpec, ids []string, sim func(core.Scheme) (*core.Result, error)) (*schema.Verdict, FastResult, error) {
	scheme, sigs, sig := d.sign(specs)
	var fr FastResult
	if d.enabled {
		if cv, ok := d.cache.Get(sig); ok {
			return cachedVerdict(cv, sigs, ids, sig), fr, nil
		}
		fr.CacheMiss = true
		if d.model != nil {
			if v := d.modelVerdict(sig, sigs, ids, scheme.Name()); v != nil {
				// Model verdicts are cached too: the next identical mix is
				// a tier-1 hit instead of a re-prediction.
				d.store(sig, v, sigs)
				return v, fr, nil
			}
			fr.ModelEscape = true
		}
	}
	res, err := sim(scheme)
	if err != nil {
		return nil, fr, err
	}
	v := simVerdict(res, ids, sig)
	d.store(sig, v, sigs)
	return v, fr, nil
}

// Restore replays one logged decision into the cache exactly as
// deciding it did: a cache-tier verdict was a hit, so it refreshes the
// entry's LRU recency; a model- or sim-tier verdict is stored. Nothing
// simulates. Journal recovery calls it per decision, in log order.
func (d *Decider) Restore(specs []core.KernelSpec, v *schema.Verdict) {
	if !d.enabled {
		return
	}
	_, sigs, sig := d.sign(specs)
	if v.Tier == schema.TierCache {
		d.cache.Get(sig)
		return
	}
	d.store(sig, v, sigs)
}

// sign lowers a hypothetical mix to what keys it: the effective scheme,
// the kernel signatures and their hash under this decider's config. A
// mix with no QoS kernel has no contract to protect — the QoS manager
// refuses goal-less co-runs — so it runs (and is cached) under unmanaged
// sharing and admits vacuously, still with real throughput evidence.
func (d *Decider) sign(specs []core.KernelSpec) (core.Scheme, []KernelSig, string) {
	scheme := core.SchemeNone
	for _, sp := range specs {
		if sp.GoalFrac > 0 || sp.GoalIPC > 0 {
			scheme = d.scheme
			break
		}
	}
	sigs := KernelSigsOf(specs)
	return scheme, sigs, Signature(sigs, scheme.Name(), d.cfgHash)
}

// KernelSigsOf lowers ordered kernel specs to signature form.
func KernelSigsOf(specs []core.KernelSpec) []KernelSig {
	sigs := make([]KernelSig, len(specs))
	for i, sp := range specs {
		sigs[i] = KernelSig{Workload: sp.Workload, GoalFrac: sp.GoalFrac, GoalIPC: sp.GoalIPC}
	}
	return sigs
}

// MixEntry is one kernel of a journaled admission snapshot — the mix a
// decision saw, or its candidate — with enough to rebuild the what-if
// spec on replay or recovery. Both decision journals (/v1's and a fleet
// node's) write it.
type MixEntry struct {
	JobID    string  `json:"job_id"`
	Workload string  `json:"workload"`
	GoalFrac float64 `json:"goal_frac,omitempty"`
	GoalIPC  float64 `json:"goal_ipc,omitempty"`
}

// Spec rebuilds the kernel spec the entry was evaluated with.
func (m MixEntry) Spec() core.KernelSpec {
	return core.KernelSpec{Workload: m.Workload, GoalFrac: m.GoalFrac, GoalIPC: m.GoalIPC}
}

// MixSpecs lowers a journaled decision — the mix it saw, then its
// candidate — to the ordered specs and ids Decide and Restore take.
func MixSpecs(mix []MixEntry, candidate MixEntry) ([]core.KernelSpec, []string) {
	specs := make([]core.KernelSpec, 0, len(mix)+1)
	ids := make([]string, 0, len(mix)+1)
	for _, m := range mix {
		specs = append(specs, m.Spec())
		ids = append(ids, m.JobID)
	}
	return append(specs, candidate.Spec()), append(ids, candidate.JobID)
}

// evidenceRef renders the signature reference carried on verdicts.
func evidenceRef(sig string) string {
	if len(sig) > 16 {
		sig = sig[:16]
	}
	return "sig:" + sig
}

// FastResult reports what the fast tiers did for one decision, so the
// owner can maintain counters without the decider knowing about them.
type FastResult struct {
	// CacheMiss: the fast path is enabled and the exact cache missed.
	CacheMiss bool
	// ModelEscape: the model was consulted but declined (coverage hole
	// or a prediction inside the uncertainty band).
	ModelEscape bool
}

// cachedVerdict maps a stored verdict's canonical-order outcomes back to
// the current request's kernel positions and job ids.
func cachedVerdict(cv Cached, sigs []KernelSig, ids []string, sig string) *schema.Verdict {
	outs := make([]schema.KernelOutcome, len(sigs))
	for ci, oi := range Canonical(sigs) {
		o := cv.Outcomes[ci]
		o.JobID = ids[oi]
		outs[oi] = o
	}
	v := newVerdict(cv.Admitted, schema.TierCache, cv.Confidence, cv.Scheme, ids, outs, sig)
	v.ModelVersion = cv.ModelVersion
	v.Cycles = cv.Cycles
	v.Reason = verdictReason(cv.Admitted, cv.Tier, cv.Confidence, outs)
	return v
}

// modelVerdict runs the analytic tier; nil means escape to simulation.
func (d *Decider) modelVerdict(sig string, sigs []KernelSig, ids []string, schemeName string) *schema.Verdict {
	mk := make([]perfmodel.Kernel, len(sigs))
	for i, ks := range sigs {
		mk[i] = perfmodel.Kernel{Workload: ks.Workload, GoalFrac: ks.GoalFrac, GoalIPC: ks.GoalIPC}
	}
	pred, ok := d.model.Predict(mk)
	if !ok {
		return nil
	}
	admit, clear := pred.Decide(d.band)
	if !clear {
		return nil
	}
	conf := pred.Confidence()
	outs := make([]schema.KernelOutcome, len(sigs))
	for i, kp := range pred.Kernels {
		o := schema.KernelOutcome{
			JobID:       ids[i],
			Workload:    kp.Workload,
			IsQoS:       kp.IsQoS,
			GoalIPC:     kp.GoalIPC,
			IPC:         kp.IPC,
			IsolatedIPC: kp.Isolated,
		}
		if kp.Isolated > 0 {
			o.NormThroughput = kp.IPC / kp.Isolated
		}
		if kp.IsQoS {
			o.GoalRatio = kp.Ratio
			o.Reached = kp.Ratio >= 1
		}
		outs[i] = o
	}
	v := newVerdict(admit, schema.TierModel, conf, schemeName, ids, outs, sig)
	v.ModelVersion = d.model.Version()
	v.Reason = verdictReason(admit, schema.TierModel, conf, outs)
	return v
}

// simVerdict scores a what-if simulation result (tier 3). The decision
// rule is the paper's QoS contract applied transitively: admit if and
// only if every QoS kernel of the hypothetical mix reaches its goal.
func simVerdict(res *core.Result, ids []string, sig string) *schema.Verdict {
	outs := make([]schema.KernelOutcome, len(res.Kernels))
	for i, kr := range res.Kernels {
		outs[i] = schema.KernelOutcome{
			JobID:          ids[i],
			Workload:       kr.Name,
			IsQoS:          kr.IsQoS,
			GoalIPC:        kr.GoalIPC,
			IPC:            kr.IPC,
			IsolatedIPC:    kr.IsolatedIPC,
			Reached:        kr.Reached,
			GoalRatio:      kr.GoalRatio,
			NormThroughput: kr.NormThroughput,
		}
	}
	v := newVerdict(res.AllReached, schema.TierSim, 1, res.Scheme.Name(), ids, outs, sig)
	v.Cycles = res.Cycles
	v.Reason = verdictReason(res.AllReached, schema.TierSim, 1, outs)
	return v
}

// newVerdict assembles the shared envelope; outs is in request order
// with the candidate last.
func newVerdict(admitted bool, tier string, conf float64, schemeName string, ids []string, outs []schema.KernelOutcome, sig string) *schema.Verdict {
	n := len(outs)
	mixIDs := make([]string, n-1)
	copy(mixIDs, ids)
	v := &schema.Verdict{
		Decision:    schema.Decision(admitted),
		Tier:        tier,
		Confidence:  conf,
		EvidenceRef: evidenceRef(sig),
		Scheme:      schemeName,
		MixBefore:   mixIDs,
		Candidate:   outs[n-1],
	}
	if n > 1 {
		v.Incumbents = outs[:n-1]
	}
	return v
}

// verdictReason renders the deterministic human-readable explanation.
// evidenceTier is the origin of the evidence ("sim" or "model"), which a
// cache hit inherits from the stored verdict.
func verdictReason(admitted bool, evidenceTier string, confidence float64, outs []schema.KernelOutcome) string {
	if evidenceTier == schema.TierModel {
		if admitted {
			return fmt.Sprintf("analytic model predicts all QoS goals reached (confidence %.3f)", confidence)
		}
		return "analytic model predicts QoS goal missed by " + missedList(outs)
	}
	if admitted {
		return "all QoS goals reached in the what-if co-run"
	}
	return "QoS goal missed by " + missedList(outs)
}

// missedList names every QoS kernel below goal, in request order.
func missedList(outs []schema.KernelOutcome) string {
	var missed []string
	for _, o := range outs {
		if o.IsQoS && !o.Reached {
			missed = append(missed, fmt.Sprintf("%s (%s) at %.1f%% of goal", o.JobID, o.Workload, 100*o.GoalRatio))
		}
	}
	return strings.Join(missed, ", ")
}

// store caches a decided verdict under its signature with outcomes in
// canonical order and job ids stripped. No-op when the fast path is off.
func (d *Decider) store(sig string, v *schema.Verdict, sigs []KernelSig) {
	if !d.enabled {
		return
	}
	outs := make([]schema.KernelOutcome, 0, len(v.Incumbents)+1)
	outs = append(outs, v.Incumbents...)
	outs = append(outs, v.Candidate)
	canon := make([]schema.KernelOutcome, len(outs))
	for ci, oi := range Canonical(sigs) {
		o := outs[oi]
		o.JobID = ""
		canon[ci] = o
	}
	d.cache.Put(sig, Cached{
		Admitted:     v.IsAdmitted(),
		Scheme:       v.Scheme,
		Cycles:       v.Cycles,
		Confidence:   v.Confidence,
		Tier:         v.Tier,
		ModelVersion: v.ModelVersion,
		Outcomes:     canon,
	})
}
