package verdict

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/schema"
)

// The decision path, shared by the qosd decision loop, the serial
// Replayer and every node of a fleet: one call, Decider.Decide. The
// fast tier is the exact verdict cache: a canonical mix signature either
// hits a decided verdict or misses. A miss runs the full what-if
// simulation, which the caller supplies as a function; the Decider
// guards it (core.Guard: panic recovery and the per-evaluation
// deadline), scores its result and caches the verdict. Because both
// admission planes decide through this one call, a panicking or wedged
// what-if fails one job the same way on either plane and never the
// process.
//
// Determinism contract: all mutation happens on one goroutine per
// Decider (a decision loop, a node's placement evaluations, or a
// replayer), in decision order, so a serial replay of a decision log
// evolves an identical cache and reproduces every verdict — and its
// deciding tier — bit for bit. Restore is the same evolution without
// the deciding: recovery feeds it the logged verdicts, or for a cache hit
// only its key, and gets back the verdict each decision gave, so a
// restarted owner continues with the cache the stopped one had.

// DefaultCacheSize bounds the exact-verdict cache when the fast path is
// enabled and DeciderConfig.CacheSize is zero.
const DefaultCacheSize = 4096

// DeciderConfig is the decision half of a daemon or node config.
type DeciderConfig struct {
	// FastPath enables the verdict cache; off, every decision simulates.
	FastPath bool
	// CacheSize overrides DefaultCacheSize when positive.
	CacheSize int
	// Scheme is the (already defaulted) QoS scheme the owner evaluates
	// under: what Decide hands sim for any mix with a goal to protect.
	Scheme core.Scheme
	// EvalTimeout bounds each what-if simulation (0 = no deadline); the
	// owner lowers its own EvalTimeout into it.
	EvalTimeout time.Duration
}

// Decider decides admissions for one simulator session: Decide for a
// live or replayed decision, Restore for one read back from a journal.
// The owner supplies the simulation (a traced run in the /v1 loop, a
// plain Session.Run in a fleet node and the Replayer); the tier protocol
// and the guard around it live here and nowhere else.
type Decider struct {
	enabled bool
	scheme  core.Scheme
	timeout time.Duration
	cache   *Cache
	// cfgHash binds signatures to the exact simulator configuration and
	// seed (configHash).
	cfgHash string
}

// NewDecider returns the decider for a session, bound to that session's
// config hash.
func NewDecider(sess *core.Session, dc DeciderConfig) (*Decider, error) {
	cfgHash, err := configHash(sess.Config(), sess.Seed())
	if err != nil {
		return nil, err
	}
	d := &Decider{enabled: dc.FastPath, scheme: dc.Scheme, timeout: dc.EvalTimeout, cfgHash: cfgHash}
	if !dc.FastPath {
		return d, nil
	}
	size := dc.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	d.cache = NewCache(size)
	return d, nil
}

// configHash hashes a simulator configuration and seed into the value
// every signature is bound to. Its JSON shape fixes every cache key and
// sig: evidence ref ever written, so it must not change.
func configHash(cfg core.Config, seed uint64) (string, error) {
	return journal.Hash(struct {
		Config core.Config
		Seed   uint64
	}{cfg, seed})
}

// Enabled reports whether the verdict cache is on.
func (d *Decider) Enabled() bool { return d.enabled }

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
// order): effective scheme, signature, exact cache, and only on a miss
// sim — called at most once, with the scheme the what-if must run under
// — whose result is scored and cached.
//
// sim runs under core.Guard on ctx: a panic in it returns a
// *core.PanicError, and it is handed a context that expires after
// EvalTimeout, whose expiry it returns as context.DeadlineExceeded. A
// sim error of any kind is returned as is and caches nothing, so the
// decision can be asked again and simulates again. cacheMiss reports, on
// every return, error included, that the cache was on and missed, so
// owners can count it.
func (d *Decider) Decide(ctx context.Context, specs []core.KernelSpec, ids []string, sim func(context.Context, core.Scheme) (*core.Result, error)) (v *schema.Verdict, cacheMiss bool, err error) {
	scheme, sigs, sig := d.sign(specs)
	if d.enabled {
		if cv, ok := d.cache.Get(sig); ok {
			return cachedVerdict(cv, sigs, ids, sig), false, nil
		}
		cacheMiss = true
	}
	var res *core.Result
	err = core.Guard(ctx, d.timeout, func(ctx context.Context) (err error) {
		res, err = sim(ctx, scheme)
		return err
	})
	if err != nil {
		return nil, cacheMiss, err
	}
	v = simVerdict(res, ids, sig)
	d.store(sig, v, sigs)
	return v, cacheMiss, nil
}

// Restore replays one logged decision into the cache exactly as
// deciding it did, and returns the verdict the decision gave (ids names
// the mix's jobs, as for Decide): a sim-tier verdict is stored; a
// cache-tier verdict was a hit, so it refreshes the entry's LRU recency;
// either is returned as logged. A nil verdict is a hit logged by its key
// alone: in-order replay has re-evolved the cache that answered it, so
// its signature must be there, and the cached verdict, re-mapped to ids
// as Decide would have, is returned; a miss is an error, because the
// cached verdict was the record's only copy. The mix is signed once and
// nothing simulates. Journal recovery calls it per decision, in log
// order.
func (d *Decider) Restore(specs []core.KernelSpec, ids []string, v *schema.Verdict) (*schema.Verdict, error) {
	if !d.enabled {
		if v == nil {
			return nil, errors.New("cache hit logged by its key, but the verdict cache is off")
		}
		return v, nil
	}
	_, sigs, sig := d.sign(specs)
	switch {
	case v == nil:
		cv, ok := d.cache.Get(sig)
		if !ok {
			return nil, fmt.Errorf("cache hit %s is not in the replayed cache", evidenceRef(sig))
		}
		return cachedVerdict(cv, sigs, ids, sig), nil
	case v.Tier == schema.TierCache:
		d.cache.Get(sig)
	default:
		d.store(sig, v, sigs)
	}
	return v, nil
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

// ReadMixEntry reads a mix entry on the schema.Cursor fast path.
func ReadMixEntry(c *schema.Cursor) MixEntry {
	if c == nil {
		return MixEntry{}
	}
	var m MixEntry
	c.Open()
	m.JobID = c.Key("job_id").String()
	m.Workload = c.Key("workload").String()
	m.GoalFrac = c.Opt("goal_frac").Float()
	m.GoalIPC = c.Opt("goal_ipc").Float()
	c.Close()
	return m
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

// cachedVerdict maps a stored verdict's canonical-order outcomes back to
// the current request's kernel positions and job ids.
func cachedVerdict(cv Cached, sigs []KernelSig, ids []string, sig string) *schema.Verdict {
	outs := make([]schema.KernelOutcome, len(sigs))
	for ci, oi := range Canonical(sigs) {
		o := cv.Outcomes[ci]
		o.JobID = ids[oi]
		outs[oi] = o
	}
	v := newVerdict(cv.Admitted, schema.TierCache, cv.Scheme, ids, outs, sig)
	v.Cycles = cv.Cycles
	return v
}

// simVerdict scores a what-if simulation result. The decision
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
	v := newVerdict(res.AllReached, schema.TierSim, res.Scheme.Name(), ids, outs, sig)
	v.Cycles = res.Cycles
	return v
}

// newVerdict assembles the shared envelope and its reason; outs is in
// request order with the candidate last. Every verdict rests on
// simulation evidence, a cache hit on the run that seeded it, so its
// confidence is 1.
func newVerdict(admitted bool, tier string, schemeName string, ids []string, outs []schema.KernelOutcome, sig string) *schema.Verdict {
	n := len(outs)
	mixIDs := make([]string, n-1)
	copy(mixIDs, ids)
	v := &schema.Verdict{
		Decision:    schema.Decision(admitted),
		Tier:        tier,
		Confidence:  1,
		EvidenceRef: evidenceRef(sig),
		Reason:      verdictReason(admitted, outs),
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
func verdictReason(admitted bool, outs []schema.KernelOutcome) string {
	if admitted {
		return "all QoS goals reached in the what-if co-run"
	}
	return "QoS goal missed by " + missedList(outs)
}

// missedList names every QoS kernel below goal, in request order, as
// "job (workload) at R% of goal" with R to one decimal, ", "-separated.
// It appends instead of formatting: recovery builds a reason for every
// rejecting cache hit it replays.
func missedList(outs []schema.KernelOutcome) string {
	var b strings.Builder
	var num [32]byte
	for _, o := range outs {
		if !o.IsQoS || o.Reached {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(o.JobID)
		b.WriteString(" (")
		b.WriteString(o.Workload)
		b.WriteString(") at ")
		b.Write(strconv.AppendFloat(num[:0], 100*o.GoalRatio, 'f', 1, 64))
		b.WriteString("% of goal")
	}
	return b.String()
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
		Admitted: v.IsAdmitted(),
		Scheme:   v.Scheme,
		Cycles:   v.Cycles,
		Outcomes: canon,
	})
}
