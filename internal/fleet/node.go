package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/schema"
	"repro/internal/verdict"
)

// capEps absorbs float accumulation error in the capacity ledger so a
// node packed with 10× 0.1 shares still counts as exactly full.
const capEps = 1e-9

// MixEntry is one kernel of a node's resident mix as journaled with
// every decision, shared with the /v1 decision log (verdict.MixEntry).
type MixEntry = verdict.MixEntry

// NodeDecision is one per-node admission decision journal entry: the
// resident mix, the candidate and, for a decision the simulator made,
// the verdict. A cache hit is journaled by its key alone (no verdict):
// its verdict is the one the cache already held, decided by an earlier
// sim-tier record of the same journal, so a copy would add bytes and
// nothing else. Replaying the sequence in order re-evolves the node's
// verdict cache exactly, which is what lets recovery find every hit's
// verdict again, so a restarted node serves the same tiers for the same
// future traffic. Journals written before hits were journaled by key
// carry a verdict on every record, and recover the same way.
type NodeDecision struct {
	JobID     string          `json:"job_id"`
	Mix       []MixEntry      `json:"mix,omitempty"`
	Candidate MixEntry        `json:"candidate"`
	Verdict   *schema.Verdict `json:"verdict,omitempty"`
}

// readNodeDecision reads a NodeDecision on the schema.Cursor fast path.
func readNodeDecision(c *schema.Cursor) NodeDecision {
	var d NodeDecision
	c.Open()
	d.JobID = c.Key("job_id").String()
	d.Mix = schema.ReadArray(c.Opt("mix"), verdict.ReadMixEntry)
	d.Candidate = verdict.ReadMixEntry(c.Key("candidate"))
	d.Verdict = schema.ReadVerdict(c.Opt("verdict"))
	c.Close()
	return d
}

// placedEntry is one job resident on a node.
type placedEntry struct {
	job    *Job
	spec   core.KernelSpec
	shares Shares
}

// node is one simulated GPU in the fleet: a simulator session (shared
// with the fleet's other nodes on the same device), its own tiered
// verdict decider and its own crash-safe decision journal. It needs no
// goroutine of its own: the placement goroutine is the only caller of
// evaluate and asks one question at a time (place in best-fit order,
// repartition in scan order), so a node's evaluations are serial and
// its journal order fixed.
type node struct {
	id   string
	name string
	cfg  config.GPU
	sess *core.Session
	dec  *verdict.Decider
	// sim runs one what-if on sess (sess.Run); tests replace it to panic
	// or wedge.
	sim    func(ctx context.Context, specs []core.KernelSpec, scheme core.Scheme) (*core.Result, error)
	maxMix int
	jnl    *journal.Journal // nil when journaling is disabled
	ctx    context.Context
	ctr    *counters // the fleet's

	mu       sync.Mutex
	mix      []*placedEntry // admission order
	usedSM   float64
	usedMem  float64
	tiers    map[string]int
	simEvals int
	nextDec  int // next decision journal index
	// replayed holds, by decision index, the verdict of every admit the
	// node journal recovered, for the slim place and migrate records that
	// carry them by index; recovery drops it once placement replay ends.
	replayed map[int]*schema.Verdict
}

// NodeView is the wire-ready snapshot of one node.
type NodeView struct {
	ID           string         `json:"id"`
	Name         string         `json:"name,omitempty"`
	NumSMs       int            `json:"num_sms"`
	WindowCycles int64          `json:"window_cycles"`
	MaxMix       int            `json:"max_mix"`
	UsedSM       float64        `json:"used_sm"`
	UsedMem      float64        `json:"used_mem"`
	Jobs         []string       `json:"jobs,omitempty"`
	Tiers        map[string]int `json:"tiers,omitempty"`
	SimEvals     int            `json:"sim_evals"`
	CacheLen     int            `json:"verdict_cache_len"`
	Decisions    int            `json:"decisions"`
}

const decisionStage = "decisions"

// evaluate decides one what-if co-run (mix + candidate last; jobID is
// the job the question is asked for) through the tiered path: exact
// cache, then on a miss the guarded full simulation, and returns the
// verdict with the index of the decision record it wrote. A failed
// simulation (error, panic, expired EvalTimeout) writes no record.
// The spec snapshot is built by the placement goroutine, so repartition
// searches can pose counterfactual mixes ("A's mix without m, plus j")
// with the same machinery as plain placement.
//
// A rejecting verdict's record is flushed before evaluate returns: no
// placement record will carry it. An admitting one is only written: the
// place or migrate record that acts on it carries its index, and that
// record's flush makes the decision durable, since recovery rebuilds a
// lost record from it (rebuild). A caller that acts on an admit without
// committing it must flush the node first.
func (n *node) evaluate(specs []core.KernelSpec, ids []string, jobID string) (*schema.Verdict, int, error) {
	n.ctr.asks.Add(1)
	v, _, err := n.dec.Decide(n.ctx, specs, ids, func(ctx context.Context, scheme core.Scheme) (*core.Result, error) {
		return n.sim(ctx, specs, scheme)
	})
	if err != nil {
		return nil, 0, err
	}
	idx := n.count(v.Tier)
	if n.jnl != nil {
		d := decisionRecord(specs, ids, jobID, v)
		write := n.jnl.Write
		if !v.IsAdmitted() {
			write = n.jnl.Append
			n.ctr.flushes.Add(1)
		}
		n.ctr.records.Add(1)
		if err := write(decisionStage, idx, d); err != nil {
			return nil, 0, fmt.Errorf("node %s: journal decision %d: %w", n.id, idx, err)
		}
	}
	return v, idx, nil
}

// decisionRecord is the journal entry of one what-if question: the mix
// and candidate, and the verdict unless the cache tier gave it.
func decisionRecord(specs []core.KernelSpec, ids []string, jobID string, v *schema.Verdict) NodeDecision {
	entries := make([]MixEntry, len(specs))
	for i, s := range specs {
		entries[i] = MixEntry{JobID: ids[i], Workload: s.Workload, GoalFrac: s.GoalFrac, GoalIPC: s.GoalIPC}
	}
	last := len(entries) - 1
	d := NodeDecision{JobID: jobID, Mix: entries[:last], Candidate: entries[last]}
	if v.Tier != schema.TierCache {
		d.Verdict = v
	}
	return d
}

// count books one decision of the given tier in the node's tier
// counters and returns its record index.
func (n *node) count(tier string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tiers[tier]++
	if tier == schema.TierSim {
		n.simEvals++
	}
	n.nextDec++
	return n.nextDec - 1
}

// flush makes every decision record the node has written durable. The
// placement goroutine calls it before acting on an admit that no
// placement record carries.
func (n *node) flush() error {
	if n.jnl == nil {
		return nil
	}
	n.ctr.flushes.Add(1)
	if err := n.jnl.Sync(); err != nil {
		return fmt.Errorf("node %s: flush decisions: %w", n.id, err)
	}
	return nil
}

// recover replays the node's decision journal in index order,
// re-evolving the verdict cache (verdict.Decider.Restore), and keeps
// each admit's verdict in replayed. A record without a verdict is a
// cache hit, whose key must be in the cache the replay has re-evolved so
// far; a rejecting one's verdict is never built. No simulation runs.
func (n *node) recover() error {
	if n.jnl == nil {
		return nil
	}
	n.replayed = make(map[int]*schema.Verdict)
	return n.jnl.Each(decisionStage, func(i int, raw json.RawMessage) error {
		d, err := schema.Decode(raw, readNodeDecision)
		if err != nil {
			return fmt.Errorf("node %s: decision %d: %w", n.id, i, err)
		}
		specs, ids := verdict.MixSpecs(d.Mix, d.Candidate)
		v, tier, err := n.dec.Restore(specs, ids, d.Verdict)
		if err != nil {
			return fmt.Errorf("node %s: decision %d: %w", n.id, i, err)
		}
		if v != nil && v.IsAdmitted() {
			n.replayed[i] = v
		}
		n.count(tier)
		n.nextDec = i + 1
		return nil
	})
}

// carried returns the verdict of decision idx, the admit that put
// candidate (job jobID) here, which a place or migrate record replayed
// with the node's resident mix as it stood (placement replay has just
// rebuilt it) carries: v, the record's copy, or nil for a slim record
// that carries it by index alone. A record below the node's recovered
// count is on disk already: its verdict is v, or for a slim record the
// one the node journal replayed, which must be an admit of jobID. One at
// the count was written but lost with the flush that never came, and is
// rebuilt. One above the count means a record no placement carries went
// missing, and the node cannot be rebuilt.
func (n *node) carried(idx int, candidate core.KernelSpec, jobID string, v *schema.Verdict) (*schema.Verdict, error) {
	n.mu.Lock()
	have := n.nextDec
	n.mu.Unlock()
	switch {
	case idx > have:
		return nil, fmt.Errorf("node %s: placement carries decision %d, but the node journal recovers only %d: a decision no placement carries is missing", n.id, idx, have)
	case idx == have:
		return n.rebuild(idx, candidate, jobID, v)
	case v != nil:
		return v, nil
	}
	if rv := n.replayed[idx]; rv != nil && rv.Candidate.JobID == jobID {
		return rv, nil
	}
	return nil, fmt.Errorf("node %s: decision %d is not a replayed admit of job %s", n.id, idx, jobID)
}

// rebuild is recovery's half of the commit rule: decision idx, carried
// by a placement record but lost from the node journal, is rebuilt from
// the resident mix, the candidate and the carried verdict v, or for a
// cache hit (v of the cache tier, or nil from a slim record) its key
// alone, as evaluate wrote it. It is restored into the cache through
// that record, journaled, flushed, at its index, byte-identical to the
// one that was lost, and rebuild returns the verdict it gave, which must
// admit: a placement carries only admits.
func (n *node) rebuild(idx int, candidate core.KernelSpec, jobID string, v *schema.Verdict) (*schema.Verdict, error) {
	specs, ids := n.mixSnapshot("")
	specs, ids = append(specs, candidate), append(ids, jobID)
	if v != nil && v.Tier == schema.TierCache {
		v = nil
	}
	v, _, err := n.dec.Restore(specs, ids, v)
	if err == nil && (v == nil || !v.IsAdmitted()) {
		err = fmt.Errorf("it rejects job %s, which a placement record placed", jobID)
	}
	if err != nil {
		return nil, fmt.Errorf("node %s: rebuild decision %d: %w", n.id, idx, err)
	}
	n.count(v.Tier)
	n.ctr.records.Add(1)
	n.ctr.flushes.Add(1)
	if err := n.jnl.Append(decisionStage, idx, decisionRecord(specs, ids, jobID, v)); err != nil {
		return nil, fmt.Errorf("node %s: rebuild decision %d: %w", n.id, idx, err)
	}
	return v, nil
}

// fits reports whether shares (plus one more mix slot) are available.
func (n *node) fits(s Shares) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fitsLocked(s)
}

func (n *node) fitsLocked(s Shares) bool {
	return len(n.mix) < n.maxMix &&
		n.usedSM+s.SM <= 1+capEps &&
		n.usedMem+s.Mem <= 1+capEps
}

// fitsWithout reports whether shares fit once the entry for jobID is
// evicted — the capacity question the repartition search asks.
func (n *node) fitsWithout(jobID string, s Shares) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	used := Shares{SM: n.usedSM, Mem: n.usedMem}
	slots := len(n.mix)
	for _, e := range n.mix {
		if e.job.id == jobID {
			used.SM -= e.shares.SM
			used.Mem -= e.shares.Mem
			slots--
			break
		}
	}
	return slots < n.maxMix && used.SM+s.SM <= 1+capEps && used.Mem+s.Mem <= 1+capEps
}

// leftover is the best-fit score: total unused capacity if shares were
// placed here (smaller = tighter = preferred).
func (n *node) leftover(s Shares) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return (1 - n.usedSM - s.SM) + (1 - n.usedMem - s.Mem)
}

// add makes a job resident.
func (n *node) add(j *Job, spec core.KernelSpec, s Shares) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mix = append(n.mix, &placedEntry{job: j, spec: spec, shares: s})
	n.usedSM += s.SM
	n.usedMem += s.Mem
}

// remove evicts a job, freeing its capacity.
func (n *node) remove(jobID string) *placedEntry {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, e := range n.mix {
		if e.job.id == jobID {
			n.mix = append(n.mix[:i], n.mix[i+1:]...)
			n.usedSM -= e.shares.SM
			n.usedMem -= e.shares.Mem
			if n.usedSM < 0 {
				n.usedSM = 0
			}
			if n.usedMem < 0 {
				n.usedMem = 0
			}
			return e
		}
	}
	return nil
}

// mixSnapshot returns the resident specs/ids in admission order, and
// optionally skips one job (for repartition counterfactuals).
func (n *node) mixSnapshot(skipJobID string) ([]core.KernelSpec, []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	specs := make([]core.KernelSpec, 0, len(n.mix))
	ids := make([]string, 0, len(n.mix))
	for _, e := range n.mix {
		if e.job.id == skipJobID {
			continue
		}
		specs = append(specs, e.spec)
		ids = append(ids, e.job.id)
	}
	return specs, ids
}

// entries snapshots the resident entries in admission order.
func (n *node) entries() []*placedEntry {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*placedEntry(nil), n.mix...)
}

// view snapshots the node for the /v2/nodes API.
func (n *node) view() NodeView {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := NodeView{
		ID:           n.id,
		Name:         n.name,
		NumSMs:       n.cfg.NumSMs,
		WindowCycles: n.sess.Window(),
		MaxMix:       n.maxMix,
		UsedSM:       n.usedSM,
		UsedMem:      n.usedMem,
		SimEvals:     n.simEvals,
		CacheLen:     n.dec.CacheLen(),
		Decisions:    n.nextDec,
		Tiers:        make(map[string]int, len(n.tiers)),
	}
	for k, c := range n.tiers {
		v.Tiers[k] = c
	}
	for _, e := range n.mix {
		v.Jobs = append(v.Jobs, e.job.id)
	}
	return v
}
