package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/stream"
)

// fleet-place drives /v2: fractional-GPU requests bin-packed across
// four heterogeneous nodes, every capacity-feasible node asked for a
// tiered what-if verdict, a repartition search before any reject. It
// uses internal/journal differently from /v1 (five small files, one
// append per candidate node plus one per placement record) and
// internal/verdict once per node, and it guards /v2 while /v1 and /v2
// are merged (ROADMAP direction 2).
const (
	fleetArrivals = 200
	// fleetRate is tuned so that the bursty stream's admit rate lands in
	// 0.4-0.7: place, reject, release and the repartition search all run.
	fleetRate = 4
	// fleetRepeatSeconds is the nominal length of one repeat (five
	// restarts and one drive, ~1 s). The run's one cold warm-up (~5 s)
	// comes on top.
	fleetRepeatSeconds = 1.25
	// setupRounds is how many times one repeat restarts the fleet, each
	// a sample of setup_s.
	setupRounds = 5
)

func fleetNodes() []fleet.NodeSpec {
	return []fleet.NodeSpec{
		{Name: "base-0", GPU: config.Base()},
		{Name: "base-1", GPU: config.Base()},
		{Name: "base-2", GPU: config.Base()},
		{Name: "scale56", GPU: config.Scale56()},
	}
}

func fleetConfig(journalDir string) fleet.Config {
	return fleet.Config{
		Nodes:      fleetNodes(),
		Scheme:     core.SchemeRollover,
		Window:     serveWindow,
		FastPath:   true,
		JournalDir: journalDir,
	}
}

// startFleet starts a fleet behind a qosd (which serves /v2 for it).
func startFleet(journalDir string, listen bool) (*daemon, error) {
	fl, err := fleet.New(fleetConfig(journalDir))
	if err != nil {
		return nil, err
	}
	runner, err := newRunner()
	if err != nil {
		fl.Close()
		return nil, err
	}
	cfg := v1Config(runner, "")
	cfg.Fleet = fl
	srv, err := server.New(cfg)
	if err != nil {
		fl.Close()
		return nil, err
	}
	d := &daemon{srv: srv, fl: fl}
	if listen {
		if err := d.listen(); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// fleetBackend drives a fleet in-process: Submit + Wait, no transport.
type fleetBackend struct{ fl *fleet.Fleet }

func (b fleetBackend) Submit(ctx context.Context, a stream.Arrival) (stream.Outcome, error) {
	req := fleet.Request{Name: a.Tenant, Workload: a.Workload, GPUFraction: a.GPUFraction}
	if !a.Goal.IsZero() {
		g := a.Goal
		req.Goal = &g
	}
	j, err := b.fl.Submit(req)
	switch {
	case errors.Is(err, fleet.ErrQueueFull):
		return stream.Outcome{State: stream.StateThrottled}, nil
	case err != nil:
		return stream.Outcome{}, err
	}
	v, err := b.fl.Wait(ctx, j.ID())
	if err != nil && !errors.Is(err, fleet.ErrNoPlacement) && v.State == "" {
		return stream.Outcome{}, err
	}
	out := stream.Outcome{JobID: v.ID, Verdict: v.Verdict}
	switch v.State {
	case fleet.StatePlaced:
		out.State = stream.StateAdmitted
	case fleet.StateRejected:
		out.State = stream.StateRejected
	default:
		out.State = stream.StateFailed
	}
	return out, nil
}

func (b fleetBackend) Release(_ context.Context, jobID string) error { return b.fl.Release(jobID) }

// burstyTrace is the seed's MMPP stream over the built-in tenant mix
// (their gpu_fraction shares: 0.5, 0.25, 0.5, 0.25).
func burstyTrace(seed uint64) (*stream.Trace, error) {
	return generateN(stream.GenSpec{Process: stream.ProcessBursty, RatePerSec: fleetRate, Seed: seed, Tenants: stream.DefaultTenants()}, fleetArrivals)
}

// fleetWarm is the fleet's state after the warm-up drive: what the
// timed section's counters are measured against.
type fleetWarm struct {
	nodes   []fleet.NodeView
	placed  int
	reparts int
}

func warmState(fl *fleet.Fleet) fleetWarm {
	return fleetWarm{nodes: fl.Nodes(), placed: len(fl.Placements()), reparts: fl.Repartitions()}
}

// fleetTemplate builds the warm journal directory every repeat starts
// from: a fresh fleet driven once through the trace, in-process, then
// shut down. Warming four nodes from nothing costs ~6 s here (the 56-SM
// node simulates ~18 distinct mixes at ~0.3 s each), too much to pay
// once per repeat; a fleet restarted on its journals re-evolves every
// node's verdict cache without simulating, so each repeat instead
// restarts on a copy of this directory. Placement is a function of the
// trace, so the timed drive then meets only cached mixes.
func fleetTemplate(ctx context.Context, tr *stream.Trace, dir string) (fleetWarm, time.Duration, error) {
	t0 := time.Now()
	d, err := startFleet(dir, false)
	if err != nil {
		return fleetWarm{}, 0, err
	}
	if _, err := driveTrace(ctx, d.backend(true), tr, 0, nil, "fleet.submit_wait"); err != nil {
		d.stop()
		return fleetWarm{}, 0, fmt.Errorf("warm-up: %w", err)
	}
	warm := warmState(d.fl)
	return warm, time.Since(t0), d.stop()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fleetRepeat is one repeat: the fleet restarted on a fresh copy of the
// warm journals (set-up, timed), then the timed drive.
type fleetRepeat struct {
	d   *daemon
	dir string
	// starts times every restart of this repeat's set-up (seconds).
	starts []float64
	drive  *drive
	// heapBefore and heapMB are the live heap before the fleet started
	// and after the timed drive with the fleet still alive.
	heapBefore, heapMB float64
}

func fleetOnce(ctx context.Context, tr *stream.Trace, template, dir string, listen bool, rec *recorder, submitName string) (*fleetRepeat, error) {
	if err := copyDir(template, dir); err != nil {
		return nil, err
	}
	r := &fleetRepeat{dir: dir, heapBefore: liveHeapMB()}
	// A restart takes ~25 ms, short enough for one timing to be mostly
	// jitter: restart setupRounds times on the same journals (recovery
	// does not write); the last fleet stays up.
	var d *daemon
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startFleet(dir, listen); err != nil {
			return nil, err
		}
		r.starts = append(r.starts, time.Since(t0).Seconds())
	}
	r.d = d
	var err error
	if r.drive, err = driveTrace(ctx, d.backend(true), tr, 0, rec, submitName); err != nil {
		d.stop()
		return nil, err
	}
	r.heapMB = liveHeapMB()
	return r, nil
}

// fleetStopped is fleetOnce for a caller that needs only the drive.
func fleetStopped(ctx context.Context, tr *stream.Trace, template, dir string, listen bool, rec *recorder, submitName string) (*fleetRepeat, error) {
	r, err := fleetOnce(ctx, tr, template, dir, listen, rec, submitName)
	if err != nil {
		return nil, err
	}
	return r, r.d.stop()
}

func runFleetPlace(e *env) (*result, error) {
	ctx := context.Background()
	tr, err := burstyTrace(e.seed)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceFleet(ctx, e, tr)
	}
	res := newResult()
	template := filepath.Join(e.journalDir, "fleet-warm")
	_, cold, err := fleetTemplate(ctx, tr, template)
	if err != nil {
		return nil, err
	}
	var reps repeats
	var last *fleetRepeat
	for i, k := 0, e.units(fleetRepeatSeconds); i < k; i++ {
		if last != nil {
			if err := last.d.stop(); err != nil {
				return nil, err
			}
		}
		r, err := fleetOnce(ctx, tr, template, filepath.Join(e.journalDir, fmt.Sprintf("fleet-%d", i)), true, nil, "client.submit")
		if err != nil {
			return nil, err
		}
		last = r
		reps.add(r.drive, r.heapMB, r.starts...)
		countOutcomes(res, r.drive)
	}
	live := snapshotFleet(last.d.fl)
	if err := last.d.stop(); err != nil {
		return nil, err
	}
	e.logf("fleet-place: cold warm-up %.1fs, %d repeats of %d arrivals, op p50 spread across repeats %.1f%%, admit rate %.3f", cold.Seconds(), len(reps.drives), len(tr.Events), reps.report(res), last.drive.report.Totals.AdmitRate)
	if err := verifyFleet(e, res, live, last.dir); err != nil {
		return nil, err
	}
	return res, nil
}

// fleetState is what a restart must reproduce.
type fleetState struct {
	placements []fleet.Placement
	nodes      []fleet.NodeView
	jobs       int
}

func snapshotFleet(fl *fleet.Fleet) fleetState {
	return fleetState{placements: fl.Placements(), nodes: fl.Nodes(), jobs: len(fl.Jobs())}
}

// verifyFleet restarts the fleet on the journals the run wrote (five
// times) and requires the same placement sequence byte for byte, the
// same per-node mixes, cache sizes and decision counts, and the same
// number of jobs.
func verifyFleet(e *env, res *result, live fleetState, dir string) error {
	if e.inject == "flip-verdict" {
		for i := range live.placements {
			if v := live.placements[i].Verdict; v != nil {
				live.placements[i].Verdict = flipped(v)
				break
			}
		}
	}
	if e.inject == "corrupt-journal" {
		if err := corruptMiddleLine(filepath.Join(dir, "placements.jnl")); err != nil {
			return err
		}
	}
	want, _ := json.Marshal(live.placements)
	wantNodes, _ := json.Marshal(live.nodes)
	var recoverMs []float64
	for i := 0; i < restarts; i++ {
		sp := e.rec.begin("fleet.recover", -1, i)
		t := time.Now()
		fl, err := fleet.New(fleetConfig(dir))
		recoverMs = append(recoverMs, time.Since(t).Seconds()*1e3)
		e.rec.end(sp)
		res.attempted++
		if err != nil {
			res.fail("restart %d on %s: %v", i, dir, err)
			continue
		}
		got := snapshotFleet(fl)
		if b, _ := json.Marshal(got.placements); !bytes.Equal(b, want) {
			res.fail("restart %d recovered %d placement records that differ from the run's %d", i, len(got.placements), len(live.placements))
		}
		if b, _ := json.Marshal(got.nodes); !bytes.Equal(b, wantNodes) {
			res.fail("restart %d recovered different node state (mixes, cache sizes or decision counts)", i)
		}
		if got.jobs != live.jobs {
			res.fail("restart %d recovered %d jobs, the run had %d", i, got.jobs, live.jobs)
		}
		if err := fl.Close(); err != nil {
			return err
		}
	}
	res.set("server.recover_ms", median(recoverMs), len(recoverMs))
	return nil
}

// traceFleet is the traced pass of fleet-place: the same four drives as
// traceV1 (HTTP plain, HTTP with spans, in-process with and without
// journals), each on a fresh fleet.
func traceFleet(ctx context.Context, e *env, tr *stream.Trace) (*result, error) {
	res := newResult()
	dir := func(name string) string { return filepath.Join(e.journalDir, name) }

	template := dir("warm")
	warm, cold, err := fleetTemplate(ctx, tr, template)
	if err != nil {
		return nil, err
	}
	a, err := fleetStopped(ctx, tr, template, dir("a"), true, nil, "client.submit")
	if err != nil {
		return nil, err
	}
	b, err := fleetOnce(ctx, tr, template, dir("b"), true, e.rec, "client.submit")
	if err != nil {
		return nil, err
	}
	var nodes struct {
		Nodes []fleet.NodeView `json:"nodes"`
	}
	if err := b.d.getJSON("/v2/nodes", &nodes); err != nil {
		return nil, err
	}
	var placed struct {
		Placements []fleet.Placement `json:"placements"`
	}
	if err := b.d.getJSON("/v2/placements", &placed); err != nil {
		return nil, err
	}
	live := snapshotFleet(b.d.fl)
	reparts := b.d.fl.Repartitions() - warm.reparts
	if err := b.d.stop(); err != nil {
		return nil, err
	}
	c, err := fleetOnce(ctx, tr, template, dir("c"), false, e.rec, "fleet.submit_wait")
	if err != nil {
		return nil, err
	}
	inproc := snapshotFleet(c.d.fl)
	if err := c.d.stop(); err != nil {
		return nil, err
	}
	// Journals off: nothing to restart on, so this fleet is warmed the
	// slow way, by driving the trace once before the timed drive.
	off, err := startFleet("", false)
	if err != nil {
		return nil, err
	}
	var d *drive
	if _, err = driveTrace(ctx, off.backend(true), tr, 0, nil, "fleet.submit_wait"); err == nil {
		d, err = driveTrace(ctx, off.backend(true), tr, 0, e.rec, "fleet.submit_wait_nojournal")
	}
	if serr := off.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	a2, err := fleetStopped(ctx, tr, template, dir("a2"), true, nil, "client.submit")
	if err != nil {
		return nil, err
	}
	b2, err := fleetStopped(ctx, tr, template, dir("b2"), true, newRecorder(), "client.submit")
	if err != nil {
		return nil, err
	}
	// Placement is a function of the trace: the in-process drive must
	// write the placement sequence the HTTP drive wrote.
	res.attempted++
	x, _ := json.Marshal(inproc.placements)
	if y, _ := json.Marshal(live.placements); !bytes.Equal(x, y) {
		res.fail("in-process drive placed differently from the HTTP drive of the same trace")
	}
	if err := verifyFleet(e, res, live, b.dir); err != nil {
		return nil, err
	}

	best := reportClient(res, []*drive{a.drive, a2.drive}, []*drive{b.drive, b2.drive})
	n, cp50 := float64(len(best.submitUs)), median(best.submitUs)
	samples := len(best.submitUs)

	sw, nojournal := median(c.drive.submitUs), median(d.submitUs)
	res.set("fleet.submit_wait_p50_us", sw, len(c.drive.submitUs))
	res.set("fleet.nojournal_submit_wait_p50_us", nojournal, len(d.submitUs))
	res.set("fleet.cold_start_s", cold.Seconds(), 1)
	res.set("fleet.release_p50_us", median(c.drive.releaseUs), len(c.drive.releaseUs))
	res.set("server.http_overhead_us", cp50-sw, samples)
	res.set("server.journal_share", (sw-nojournal)/cp50, samples)
	res.set("server.retained_kb_per_decision", 1024*(b.heapMB-b.heapBefore)/(2*n), int(2*n))
	res.set("journal.write_kb_per_decision", best.writtenKB/n, samples)

	// Counters of the timed section: totals minus the warm-up's.
	kinds := make(map[string]int)
	for _, p := range placed.Placements[warm.placed:] {
		kinds[p.Kind]++
	}
	var evals, decided, cached, cacheLen float64
	for i, nv := range nodes.Nodes {
		w := warm.nodes[i]
		evals += float64(nv.SimEvals - w.SimEvals)
		decided += float64(nv.Decisions - w.Decisions)
		cached += float64(nv.Tiers[schema.TierCache] - w.Tiers[schema.TierCache])
		cacheLen += float64(nv.CacheLen)
	}
	res.set("fleet.placements", float64(kinds[fleet.KindPlace]), 1)
	res.set("fleet.rejects", float64(kinds[fleet.KindReject]), 1)
	res.set("fleet.repartitions", float64(reparts), 1)
	if k := kinds[fleet.KindPlace]; k > 0 {
		res.set("fleet.sim_evals_per_placement", evals/float64(k), k)
	}
	if decided > 0 {
		res.set("fleet.tier_cache_share", cached/decided, int(decided))
	}
	res.set("verdict.cache_len", cacheLen, len(nodes.Nodes))

	// The journal layer alone: every file's records re-appended to a
	// fresh journal. A placement waits for one append on the slowest
	// candidate node (they evaluate concurrently) and then one placement
	// record, so the blocking appends per arrival are the placement
	// records plus the busiest node's decisions, over arrivals.
	files := []journalFile{{path: filepath.Join(b.dir, "placements.jnl"), stage: "placements", warm: warm.placed}}
	for i, w := range warm.nodes {
		files = append(files, journalFile{path: filepath.Join(b.dir, fmt.Sprintf("node-%d.jnl", i)), stage: "decisions", warm: w.Decisions})
	}
	jr, err := probeJournal(e, files)
	if err != nil {
		return nil, err
	}
	jr.report(res)
	res.set("fleet.journal_files", float64(len(files)), 1)
	var busiest float64
	for i, nv := range nodes.Nodes {
		if k := float64(nv.Decisions - warm.nodes[i].Decisions); k > busiest {
			busiest = k
		}
	}
	blocking := (float64(len(placed.Placements)-warm.placed) + busiest) / n
	res.set("client.attributed_share", ((cp50-sw)+nojournal+blocking*jr.p50)/cp50, samples)

	if err := probeStream(ctx, e, res, tr, b.drive); err != nil {
		return nil, err
	}

	timed := live.placements[warm.placed:]
	if e.seed != defaultSeed {
		ref, err := burstyTrace(defaultSeed)
		if err != nil {
			return nil, err
		}
		// One cold drive of the reference trace: the placements do not
		// depend on which tier served them.
		r, err := startFleet("", false)
		if err != nil {
			return nil, err
		}
		_, err = driveTrace(ctx, r.backend(true), ref, 0, nil, "fleet.submit_wait")
		timed = r.fl.Placements()
		if serr := r.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	changed, err := compareGolden(e, "fleet-place", placementDigest(timed))
	if err != nil {
		return nil, err
	}
	res.set("core.stats_digest_changed", changed, 1)
	return res, nil
}

// placementDigest hashes what the fleet decided: record kinds, nodes and
// every kernel's simulated outcome, without job ids or tiers.
func placementDigest(ps []fleet.Placement) string {
	h := newDigest()
	for _, p := range ps {
		h.add(p.Kind, p.Node, p.From)
		if p.Verdict != nil {
			h.addVerdict(p.Verdict)
		}
	}
	return h.sum()
}
