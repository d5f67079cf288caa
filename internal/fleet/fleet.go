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
// placement journal (place / migrate / release / reject records). A node
// record carries its verdict only when the simulator decided it; a cache
// hit is journaled by its key alone (job id, mix and candidate), because
// its verdict is the cached copy of an earlier sim record of the same
// journal. Recovery replays each node journal in order, so the cache it
// re-evolves holds every hit's key when that hit's record comes up, and a
// key it lacks fails recovery, naming the node and the record. Journals
// whose every record carries its verdict, as all did before, recover the
// same way.
//
// Placement records are slim where the node journal already holds what
// they would copy. A place or migrate record names the node decision it
// acts on by index (decision); when the cache tier admitted, that index
// is the record's only copy of the verdict, and recovery takes the
// verdict the node journal's replay gave that decision (node replay
// keeps every admit's verdict by index until placement replay ends). A
// sim-tier admit's record still carries its verdict. A release record
// keeps only its index, kind, job, sequence and node; recovery takes its
// request and shares from the job, where the writer took them. Logs
// written before records went slim, with every verdict and full
// releases, recover to the same fleet. An older build reading a slim log
// would recover placements without verdicts and say nothing, so a
// placement journal this build wrote needs this build or a later one.
//
// A placed arrival costs one flush, not one per record: the admitting
// node's decision record is written but not flushed, and the placement
// record's flush makes it durable, because recovery rebuilds it from
// the placement journal (from its verdict, or a cache hit from its key)
// if the node journal lost it. Every node record no placement record
// carries (a reject, an admit the repartition search did not commit, an
// admit whose commit failed) is flushed before anything acts on its
// verdict. On restart the node journals are recovered concurrently, one
// goroutine per node, then the placement journal, which rebuilds the
// lost records.
//
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
	// KindFail records a job whose every what-if failed: its job id and
	// sequence only, so a restarted fleet never issues the id again.
	KindFail = "fail"
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

// Placement is one fleet placement decision, the unit the GET
// /v2/placements API serves, always whole: a place or migrate carries
// its verdict and a release its request and shares; a fail is its job
// id and sequence alone. Its journal record (placementRecord) leaves out
// what the node journals and the job already hold, and recovery puts it
// back. Index is the deterministic sequence number; replaying records in
// index order reconstructs every node's resident mix.
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

// placementRecord is a Placement as the placement journal holds it.
// A place or migrate record whose decision the cache tier admitted
// leaves its verdict out: the node journal holds that decision, by its
// key, and recovery takes the verdict from its replay. A release keeps
// only its index, kind, job, sequence and node: its request and shares
// are its job's. Every other record is the Placement byte for byte.
type placementRecord struct {
	Index    int             `json:"index"`
	Kind     string          `json:"kind"`
	JobID    string          `json:"job_id"`
	JobSeq   int             `json:"job_seq"`
	Node     string          `json:"node,omitempty"`
	From     string          `json:"from,omitempty"`
	Decision *int            `json:"decision,omitempty"`
	Request  *Request        `json:"request,omitempty"`
	Shares   *Shares         `json:"shares,omitempty"`
	Verdict  *schema.Verdict `json:"verdict,omitempty"`
	Reason   string          `json:"reason,omitempty"`
}

// record is p's placement journal record.
func (p Placement) record() placementRecord {
	r := placementRecord{Index: p.Index, Kind: p.Kind, JobID: p.JobID, JobSeq: p.JobSeq, Node: p.Node}
	if p.Kind == KindRelease || p.Kind == KindFail {
		return r
	}
	r.From, r.Decision, r.Reason = p.From, p.Decision, p.Reason
	r.Request, r.Shares = &p.Request, &p.Shares
	if p.Decision == nil || p.Verdict == nil || p.Verdict.Tier != schema.TierCache {
		r.Verdict = p.Verdict
	}
	return r
}

// readPlacement reads a placementRecord, or a whole Placement, on the
// schema.Cursor fast path into the Placement it records, what a slim
// record leaves out still zero: both write the same keys in one order.
func readPlacement(c *schema.Cursor) Placement {
	var p Placement
	c.Open()
	p.Index = c.Key("index").Int()
	p.Kind = c.Key("kind").String()
	p.JobID = c.Key("job_id").String()
	p.JobSeq = c.Key("job_seq").Int()
	p.Node = c.Opt("node").String()
	p.From = c.Opt("from").String()
	if d := c.Opt("decision"); d != nil {
		decision := d.Int()
		p.Decision = &decision
	}
	p.Request = readRequest(c.Opt("request"))
	p.Shares = readShares(c.Opt("shares"))
	p.Verdict = schema.ReadVerdict(c.Opt("verdict"))
	p.Reason = c.Opt("reason").String()
	c.Close()
	return p
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

	// Build every node and recover its decision journal (cache state)
	// concurrently: a node's recovery reads only its own journal and
	// writes only its own decider and counters. Then the placement
	// journal (mixes and jobs), whose replay needs every node's recovered
	// count and re-resolves each job's spec against its journaled node,
	// which must succeed because the journal header pins the node
	// configurations.
	bindings, err := f.recoverNodes(ctx, cfg)
	if err != nil {
		f.closeJournals()
		cancel()
		return nil, err
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
		err = f.recoverPlacements()
		for _, n := range f.nodes {
			n.replayed = nil
		}
		if err != nil {
			f.closeJournals()
			cancel()
			return nil, err
		}
	}

	go f.loop()
	return f, nil
}

// recoverNodes builds and recovers every node, one goroutine each, and
// waits for all of them. The fleet keeps every node that was built, so
// closeJournals reaches every journal that was opened; on failure the
// error is the lowest-index node's, whichever failed first.
//
// Nodes with the same device share one isolated-baseline cache: a
// baseline depends only on the device, the window and the seed, and the
// last two are fleet-wide, so three identical nodes measure each
// workload's baseline once between them. Verdict caches stay per node.
func (f *Fleet) recoverNodes(ctx context.Context, cfg Config) ([]nodeBinding, error) {
	nodes := make([]*node, len(cfg.Nodes))
	bindings := make([]nodeBinding, len(cfg.Nodes))
	errs := make([]error, len(cfg.Nodes))
	baselines := make(map[config.GPU]*core.IsolatedCache)
	for _, ns := range cfg.Nodes {
		if baselines[ns.GPU] == nil {
			baselines[ns.GPU] = core.NewIsolatedCache()
		}
	}
	var wg sync.WaitGroup
	for i, ns := range cfg.Nodes {
		wg.Add(1)
		go func(i int, ns NodeSpec) {
			defer wg.Done()
			n, bind, err := f.buildNode(ctx, i, ns, cfg, baselines[ns.GPU])
			if err == nil {
				err = n.recover()
			}
			nodes[i], bindings[i], errs[i] = n, bind, err
		}(i, ns)
	}
	wg.Wait()
	for _, n := range nodes {
		if n != nil {
			f.nodes = append(f.nodes, n)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bindings, nil
}

// buildNode assembles one node (session over the baselines cache,
// decider, journal).
func (f *Fleet) buildNode(ctx context.Context, idx int, ns NodeSpec, cfg Config, baselines *core.IsolatedCache) (*node, nodeBinding, error) {
	opts := []core.Option{core.WithGPU(ns.GPU), core.WithIsolatedCache(baselines)}
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
// rebuilding jobs, node mixes and the id counter (a failed job's id
// included, though not the job), and every node decision record a place
// or migrate record carries that its node journal lost.
// What a slim record leaves out it puts back: a place or migrate record's
// verdict from its node's replay (node.carried), a release's request and
// shares from its job, so Placements reads as the fleet that wrote it.
func (f *Fleet) recoverPlacements() error {
	return f.pj.Each(placementStage, func(i int, raw json.RawMessage) error {
		p, err := schema.Decode(raw, readPlacement)
		if err != nil {
			return fmt.Errorf("fleet: placement %d: %w", i, err)
		}
		// carried sets p's verdict from the decision record p carries,
		// rebuilding that record if it was lost, against n's mix before p
		// is applied.
		carried := func(n *node, spec core.KernelSpec) error {
			if p.Decision == nil {
				return nil
			}
			v, err := n.carried(*p.Decision, spec, p.JobID, p.Verdict)
			if err != nil {
				return fmt.Errorf("fleet: placement %d: %w", i, err)
			}
			p.Verdict = v
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
			p.Request, p.Shares = j.req, j.shares
		case KindReject:
			j := f.store.adopt(p.JobSeq, p.Request, p.Shares)
			j.finish(StateRejected, p.Reason)
		case KindFail:
			f.store.reserve(p.JobSeq)
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
