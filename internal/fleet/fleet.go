// Package fleet scales qosd's admission control from one simulated GPU
// to a registry of N simulated GPUs (heterogeneous configurations
// allowed) behind a single deterministic placement scheduler.
//
// Requests arrive in the fractional-GPU vocabulary of production
// schedulers (gpu_fraction / vgpu_cores / vgpu_memory, see Request) and
// are bin-packed across nodes: a best-fit search over every node with
// fractional capacity left, where a capacity-feasible candidate is
// proven by that node's what-if admission check (exact verdict cache →
// full simulation — the same evidence path the single-GPU daemon uses,
// via verdict.Decider). A single placement
// goroutine owns all capacity state and asks every question, serially:
// it asks the candidates in policy order (tightest fit first) and stops
// at the first that admits, so the placement sequence for a given
// submission stream is deterministic and nodes past the chosen one
// write no decision record.
//
// When no node can host a pending job outright, the scheduler runs a
// bounded repartitioning search (in the spirit of nebuly's nos elastic
// quota partitioning): migrate one already-admitted job to another node
// that admits it, if doing so opens a feasible slot for the pending
// job. Only then is the job rejected.
//
// Crash safety: every node owns a decision journal (replaying it
// re-evolves the verdict cache tiers exactly) and the fleet owns a
// placement journal (place / migrate / release / reject records). A
// placed arrival costs one flush, not one per record: the place (or
// migrate) record carries the index of the node decision whose verdict
// it holds, that decision record is written but not flushed, and the
// placement record's flush makes it durable, because recovery rebuilds
// it from the placement journal if the node journal lost it. Every node
// record no placement record carries (a reject, an admit the repartition
// search did not commit, an admit whose commit failed) is flushed before
// anything acts on its verdict. On restart node journals are recovered
// first, then the placement journal, which rebuilds the lost records.
// Restarting a fleet over the same journal directory reconstructs
// placements, mixes, job ids and cache state such that the continuation
// of a submission stream produces byte-identical journals to an
// uninterrupted run.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/schema"
	"repro/internal/verdict"
)

// Placement journal record kinds.
const (
	KindPlace   = "place"
	KindMigrate = "migrate"
	KindReject  = "reject"
	KindRelease = "release"
)

const placementStage = "placements"

// Defaults for Config zero values.
const (
	DefaultMaxMixPerNode = 3
	DefaultQueueDepth    = 16
)

// NodeSpec declares one simulated GPU in the fleet.
type NodeSpec struct {
	// Name is an optional operator label (echoed in views and journals).
	Name string
	// GPU is the device configuration; nodes may differ (heterogeneous
	// fleet).
	GPU config.GPU
}

// Config assembles a Fleet.
type Config struct {
	// Nodes lists the devices; at least one is required.
	Nodes []NodeSpec
	// Scheme is the QoS scheme every node evaluates under (zero value =
	// SchemeNone, unmanaged sharing).
	Scheme core.Scheme
	// Window is the measurement window in cycles (0 = session default).
	Window int64
	// Seed seeds every node's simulator (0 = session default).
	Seed uint64
	// MaxMixPerNode bounds concurrent kernels per device (0 = 3).
	MaxMixPerNode int
	// QueueDepth bounds the pending placement queue (0 = 16).
	QueueDepth int
	// FastPath enables every node decider's verdict cache.
	FastPath bool
	// VerdictCacheSize bounds each node's verdict cache (0 = default).
	VerdictCacheSize int
	// JournalDir, when set, holds one decision journal per node plus
	// the fleet placement journal; an existing directory is recovered.
	JournalDir string
	// FirstFit switches placement from best-fit (min leftover capacity)
	// to first-fit (lowest admitting node index) — the baseline policy.
	FirstFit bool
	// NoRepartition disables the repartitioning search, so jobs that do
	// not place outright are rejected immediately.
	NoRepartition bool
	// EvalTimeout bounds each node's what-if simulation (0 = no
	// deadline). A node whose evaluation fails — an error, a panic, an
	// expired deadline — writes no record and is not an admit; a job every
	// candidate failed to evaluate fails with that error.
	EvalTimeout time.Duration
}

// Placement is one fleet placement journal record, and the unit the
// GET /v2/placements API serves. Index is the deterministic sequence
// number; replaying records in index order reconstructs every node's
// resident mix.
type Placement struct {
	Index  int    `json:"index"`
	Kind   string `json:"kind"`
	JobID  string `json:"job_id"`
	JobSeq int    `json:"job_seq"`
	Node   string `json:"node,omitempty"`
	From   string `json:"from,omitempty"`
	// Decision (place and migrate only) is the index, in Node's decision
	// journal, of the admit this record acts on and whose Verdict it
	// carries. Records written before it existed have none.
	Decision *int            `json:"decision,omitempty"`
	Request  Request         `json:"request"`
	Shares   Shares          `json:"shares"`
	Verdict  *schema.Verdict `json:"verdict,omitempty"`
	Reason   string          `json:"reason,omitempty"`
}

// Counters are a fleet's work counts since New, for /metrics. They are
// process-local: a restart starts them at zero, and recovery counts only
// the records it rebuilds. No view a restart must reproduce carries them.
type Counters struct {
	// Asks counts what-if questions put to nodes.
	Asks int64
	// NodeRecords counts node decision records written.
	NodeRecords int64
	// Flushes counts journal fsyncs requested: placement records, node
	// records no placement carries, and rebuilt node records.
	Flushes int64
	// Placements counts placement records written, by kind.
	Placements map[string]int64
}

// counters are the atomic half of Counters, shared by the nodes.
type counters struct {
	asks, records, flushes atomic.Int64
}

// op is one unit of work for the placement goroutine.
type op struct {
	job       *Job       // place op
	releaseID string     // release op
	reply     chan error // release result
}

// Fleet is the node registry plus the placement scheduler.
type Fleet struct {
	scheme   core.Scheme
	firstFit bool
	noRepart bool
	nodes    []*node
	store    *jobStore
	queue    chan op
	cancel   context.CancelFunc
	loopDone chan struct{}
	pj       *journal.Journal // placement journal (nil when disabled)
	ctr      counters

	drainMu  sync.RWMutex
	draining bool

	mu           sync.Mutex
	placements   []Placement
	nextPlace    int
	repartitions int
	kinds        map[string]int64 // placement records written since New
}

// nodeBinding is hashed into each node journal header so a journal can
// never be replayed against a different device or admission setup.
type nodeBinding struct {
	Node       string `json:"node"`
	ConfigHash string `json:"config_hash"`
	Scheme     string `json:"scheme"`
	MaxMix     int    `json:"max_mix"`
	FastPath   bool   `json:"fast_path"`
	Band       string `json:"band"`
	CacheSize  int    `json:"cache_size"`
}

// bindingBand is the removed model tier's band as every node binding
// hashed it by default, kept so existing node journals still open.
const bindingBand = "0.050000"

// fleetBinding is hashed into the placement journal header.
type fleetBinding struct {
	Nodes         []nodeBinding `json:"nodes"`
	FirstFit      bool          `json:"first_fit"`
	NoRepartition bool          `json:"no_repartition"`
	QueueDepth    int           `json:"queue_depth"`
}

// New builds the fleet: one session + tiered decider per node, recovers
// any existing journals in cfg.JournalDir, then starts the placement
// loop.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: at least one node required")
	}
	if cfg.MaxMixPerNode <= 0 {
		cfg.MaxMixPerNode = DefaultMaxMixPerNode
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fleet{
		scheme:   cfg.Scheme,
		firstFit: cfg.FirstFit,
		noRepart: cfg.NoRepartition,
		store:    newJobStore(),
		queue:    make(chan op, cfg.QueueDepth),
		cancel:   cancel,
		loopDone: make(chan struct{}),
		kinds:    make(map[string]int64),
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			cancel()
			return nil, fmt.Errorf("fleet: journal dir: %w", err)
		}
	}

	bindings := make([]nodeBinding, 0, len(cfg.Nodes))
	for i, ns := range cfg.Nodes {
		n, bind, err := f.buildNode(ctx, i, ns, cfg)
		if err != nil {
			f.closeJournals()
			cancel()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		bindings = append(bindings, bind)
	}

	// Recover per-node decision journals first (cache state), then the
	// placement journal (mixes and jobs); placement replay re-resolves
	// each job's spec against its journaled node, which must succeed
	// because the journal header pins the node configurations.
	for _, n := range f.nodes {
		if err := n.recover(); err != nil {
			f.closeJournals()
			cancel()
			return nil, err
		}
	}
	if cfg.JournalDir != "" {
		hash, err := journal.Hash(fleetBinding{
			Nodes:         bindings,
			FirstFit:      cfg.FirstFit,
			NoRepartition: cfg.NoRepartition,
			QueueDepth:    cfg.QueueDepth,
		})
		if err != nil {
			f.closeJournals()
			cancel()
			return nil, err
		}
		f.pj, err = journal.Open(filepath.Join(cfg.JournalDir, "placements.jnl"), hash)
		if err != nil {
			f.closeJournals()
			cancel()
			return nil, err
		}
		if err := f.recoverPlacements(); err != nil {
			f.closeJournals()
			cancel()
			return nil, err
		}
	}

	go f.loop()
	return f, nil
}

// buildNode assembles one node (session, decider, journal).
func (f *Fleet) buildNode(ctx context.Context, idx int, ns NodeSpec, cfg Config) (*node, nodeBinding, error) {
	opts := []core.Option{core.WithGPU(ns.GPU)}
	if cfg.Window > 0 {
		opts = append(opts, core.WithWindow(cfg.Window))
	}
	if cfg.Seed != 0 {
		opts = append(opts, core.WithSeed(cfg.Seed))
	}
	sess, err := core.NewSession(opts...)
	if err != nil {
		return nil, nodeBinding{}, fmt.Errorf("fleet: node %d: %w", idx, err)
	}
	dec, err := verdict.NewDecider(sess, verdict.DeciderConfig{
		FastPath:    cfg.FastPath,
		CacheSize:   cfg.VerdictCacheSize,
		Scheme:      cfg.Scheme,
		EvalTimeout: cfg.EvalTimeout,
	})
	if err != nil {
		return nil, nodeBinding{}, fmt.Errorf("fleet: node %d: %w", idx, err)
	}
	n := &node{
		id:     fmt.Sprintf("node-%d", idx),
		name:   ns.Name,
		cfg:    ns.GPU,
		sess:   sess,
		dec:    dec,
		sim:    sess.Run,
		maxMix: cfg.MaxMixPerNode,
		ctx:    ctx,
		ctr:    &f.ctr,
		tiers:  make(map[string]int),
	}
	bind := nodeBinding{
		Node:       n.id,
		ConfigHash: dec.ConfigHash(),
		Scheme:     cfg.Scheme.Name(),
		MaxMix:     cfg.MaxMixPerNode,
		FastPath:   cfg.FastPath,
		Band:       bindingBand,
		CacheSize:  dec.CacheCap(),
	}
	if cfg.JournalDir != "" {
		hash, err := journal.Hash(bind)
		if err != nil {
			return nil, nodeBinding{}, err
		}
		n.jnl, err = journal.Open(filepath.Join(cfg.JournalDir, n.id+".jnl"), hash)
		if err != nil {
			return nil, nodeBinding{}, fmt.Errorf("fleet: node %d journal: %w", idx, err)
		}
	}
	return n, bind, nil
}

// recoverPlacements replays the placement journal in index order,
// rebuilding jobs, node mixes and the id counter, and every node decision
// record a place or migrate record carries that its node journal lost.
func (f *Fleet) recoverPlacements() error {
	return f.pj.Each(placementStage, func(i int, raw json.RawMessage) error {
		var p Placement
		if err := json.Unmarshal(raw, &p); err != nil {
			return fmt.Errorf("fleet: placement %d: %w", i, err)
		}
		// carried rebuilds the decision record p carries, if it was lost,
		// against n's mix before p is applied.
		carried := func(n *node, spec core.KernelSpec) error {
			if p.Decision == nil {
				return nil
			}
			if err := n.rebuild(*p.Decision, spec, p.JobID, p.Verdict); err != nil {
				return fmt.Errorf("fleet: placement %d: %w", i, err)
			}
			return nil
		}
		switch p.Kind {
		case KindPlace:
			n := f.nodeByID(p.Node)
			if n == nil {
				return fmt.Errorf("fleet: placement %d: %w %q", i, ErrUnknownNode, p.Node)
			}
			j := f.store.adopt(p.JobSeq, p.Request, p.Shares)
			spec, err := p.Request.SpecFor(n.cfg)
			if err != nil {
				return fmt.Errorf("fleet: placement %d: %w", i, err)
			}
			if err := carried(n, spec); err != nil {
				return err
			}
			n.add(j, spec, p.Shares)
			j.setPlaced(n.id, p.Verdict)
		case KindMigrate:
			j, ok := f.store.get(p.JobID)
			if !ok {
				return fmt.Errorf("fleet: placement %d: %w %q", i, ErrUnknownJob, p.JobID)
			}
			from, to := f.nodeByID(p.From), f.nodeByID(p.Node)
			if from == nil || to == nil {
				return fmt.Errorf("fleet: placement %d: %w", i, ErrUnknownNode)
			}
			e := from.remove(p.JobID)
			if e == nil {
				return fmt.Errorf("fleet: placement %d: job %q not on %q", i, p.JobID, p.From)
			}
			spec, err := p.Request.SpecFor(to.cfg)
			if err != nil {
				return fmt.Errorf("fleet: placement %d: %w", i, err)
			}
			if err := carried(to, spec); err != nil {
				return err
			}
			to.add(j, spec, e.shares)
			j.setPlaced(to.id, p.Verdict)
		case KindRelease:
			j, ok := f.store.get(p.JobID)
			if !ok {
				return fmt.Errorf("fleet: placement %d: %w %q", i, ErrUnknownJob, p.JobID)
			}
			if n := f.nodeByID(p.Node); n != nil {
				n.remove(p.JobID)
			}
			j.setReleased()
		case KindReject:
			j := f.store.adopt(p.JobSeq, p.Request, p.Shares)
			j.finish(StateRejected, p.Reason)
		default:
			return fmt.Errorf("fleet: placement %d: unknown kind %q", i, p.Kind)
		}
		f.placements = append(f.placements, p)
		f.nextPlace = i + 1
		return nil
	})
}

// Submit validates and enqueues one job for placement. It returns as
// soon as the job is queued; callers observe the outcome via Done and
// View (or Wait).
func (f *Fleet) Submit(req Request) (*Job, error) {
	shares, err := f.validate(req)
	if err != nil {
		return nil, err
	}
	f.drainMu.RLock()
	defer f.drainMu.RUnlock()
	if f.draining {
		return nil, ErrDraining
	}
	j := f.store.create(req, shares)
	select {
	case f.queue <- op{job: j}:
		return j, nil
	default:
		j.finish(StateFailed, ErrQueueFull.Error())
		return nil, ErrQueueFull
	}
}

// Wait blocks until the job reaches a terminal placement outcome and
// returns its view; rejected and failed outcomes surface as errors.
func (f *Fleet) Wait(ctx context.Context, id string) (JobView, error) {
	j, ok := f.store.get(id)
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	v := j.View()
	switch v.State {
	case StateRejected:
		return v, fmt.Errorf("%w: %s", ErrNoPlacement, v.Error)
	case StateFailed:
		return v, errors.New(v.Error)
	}
	return v, nil
}

// Release evicts a placed job, freeing its fractional capacity.
func (f *Fleet) Release(id string) error {
	if _, ok := f.store.get(id); !ok {
		return ErrUnknownJob
	}
	f.drainMu.RLock()
	if f.draining {
		f.drainMu.RUnlock()
		return ErrDraining
	}
	reply := make(chan error, 1)
	f.queue <- op{releaseID: id, reply: reply}
	f.drainMu.RUnlock()
	return <-reply
}

// Job looks up a job by id.
func (f *Fleet) Job(id string) (JobView, error) {
	j, ok := f.store.get(id)
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	return j.View(), nil
}

// JobHandle returns the live job handle (for Done-channel waits).
func (f *Fleet) JobHandle(id string) (*Job, error) {
	j, ok := f.store.get(id)
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Jobs snapshots every job in submission order.
func (f *Fleet) Jobs() []JobView { return f.store.list() }

// Nodes snapshots every node in index order.
func (f *Fleet) Nodes() []NodeView {
	out := make([]NodeView, 0, len(f.nodes))
	for _, n := range f.nodes {
		out = append(out, n.view())
	}
	return out
}

// Node snapshots one node by id.
func (f *Fleet) Node(id string) (NodeView, error) {
	n := f.nodeByID(id)
	if n == nil {
		return NodeView{}, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	return n.view(), nil
}

// Placements snapshots the placement sequence so far.
func (f *Fleet) Placements() []Placement {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Placement(nil), f.placements...)
}

// Repartitions reports how many pending jobs were placed only thanks
// to the repartitioning search.
func (f *Fleet) Repartitions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.repartitions
}

// Counters snapshots the fleet's process-local work counts.
func (f *Fleet) Counters() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := Counters{
		Asks:        f.ctr.asks.Load(),
		NodeRecords: f.ctr.records.Load(),
		Flushes:     f.ctr.flushes.Load(),
		Placements:  make(map[string]int64, len(f.kinds)),
	}
	for k, v := range f.kinds {
		c.Placements[k] = v
	}
	return c
}

// Shutdown drains the fleet: no new submissions, queued jobs finish
// placing, then loops stop and journals close. If ctx expires first,
// in-flight simulations are cancelled and their jobs fail.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.drainMu.Lock()
	if f.draining {
		f.drainMu.Unlock()
		<-f.loopDone
		return nil
	}
	f.draining = true
	close(f.queue)
	f.drainMu.Unlock()

	select {
	case <-f.loopDone:
	case <-ctx.Done():
		f.cancel() // abort in-flight node simulations
		<-f.loopDone
	}
	f.cancel()
	return f.closeJournals()
}

// Close force-stops the fleet without draining (constructor error
// paths and tests).
func (f *Fleet) Close() error {
	f.drainMu.Lock()
	if !f.draining {
		f.draining = true
		close(f.queue)
	}
	f.drainMu.Unlock()
	f.cancel()
	<-f.loopDone
	return f.closeJournals()
}

// closeJournals releases every journal descriptor the fleet holds: at
// shutdown, and when New fails partway (no loop has started yet).
func (f *Fleet) closeJournals() error {
	var first error
	for _, n := range f.nodes {
		if n.jnl != nil {
			if err := n.jnl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if f.pj != nil {
		if err := f.pj.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f *Fleet) nodeByID(id string) *node {
	for _, n := range f.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}
