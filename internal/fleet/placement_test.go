package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/schema"
	"repro/internal/verdict"
)

// refPlace is the placement rule the serial best-fit-ordered ask must
// reproduce: every capacity-feasible node evaluates the job, then best
// fit picks among the admitting ones (least leftover capacity, the
// earlier node on ties within capEps), then the repartition search, then
// rejection. It runs on the test goroutine against a fleet whose loop is
// never sent work.
func refPlace(t *testing.T, f *Fleet, j *Job) {
	t.Helper()
	type answer struct {
		n    *node
		spec core.KernelSpec
		v    *schema.Verdict
		idx  int
	}
	var pick *answer
	rejected := 0
	for _, n := range f.nodes {
		spec, err := j.req.SpecFor(n.cfg)
		if err != nil {
			t.Fatalf("%s on %s: %v", j.id, n.id, err)
		}
		if !n.fits(j.shares) {
			continue
		}
		specs, ids := n.mixSnapshot("")
		v, idx, err := n.evaluate(append(specs, spec), append(ids, j.id), j.id)
		if err != nil {
			t.Fatalf("%s on %s: %v", j.id, n.id, err)
		}
		if !v.IsAdmitted() {
			rejected++
			continue
		}
		if pick == nil || n.leftover(j.shares) < pick.n.leftover(j.shares)-capEps {
			pick = &answer{n: n, spec: spec, v: v, idx: idx}
		}
	}
	if pick != nil {
		if err := f.commitPlace(j, pick.n, pick.spec, pick.v, pick.idx, false); err != nil {
			t.Fatal(err)
		}
		return
	}
	if f.repartition(j) {
		return
	}
	reason := "no node with free fractional capacity"
	if rejected > 0 {
		reason = fmt.Sprintf("%d capacity-feasible node(s) denied admission under scheme %s", rejected, f.scheme.Name())
	}
	p := Placement{Kind: KindReject, JobID: j.id, JobSeq: j.seq, Request: j.req, Shares: j.shares, Reason: reason}
	if err := f.appendPlacement(p); err != nil {
		t.Fatal(err)
	}
	j.finish(StateRejected, reason)
}

// tinyGPU is a device with n SMs, cheap enough to simulate every
// question under the race detector.
func tinyGPU(n int) config.GPU {
	g := config.Base()
	g.NumSMs = n
	g.NumMemControllers = 2
	g.EpochLength = 5_000
	return g
}

// placeOp is one step of a seeded place/release stream: a request, or
// (req.Workload == "") the release of the pick-th currently placed job.
type placeOp struct {
	req  Request
	pick int
}

// placeStream draws n steps: mostly requests over a few workloads,
// shares and goals, sometimes a release.
func placeStream(seed uint64, n int) []placeOp {
	r := rng.New(seed)
	workloads := []string{"sgemm", "lbm", "histo", "spmv"}
	fracs := []float64{0.25, 0.5, 0.75}
	goals := []float64{0, 0.3, 0.6, 0.9}
	ops := make([]placeOp, 0, n)
	for i := 0; i < n; i++ {
		if i > 2 && r.Intn(4) == 0 {
			ops = append(ops, placeOp{pick: r.Intn(8)})
			continue
		}
		req := Request{Name: fmt.Sprintf("r%d", i), Workload: workloads[r.Intn(len(workloads))], GPUFraction: fracs[r.Intn(len(fracs))]}
		if g := goals[r.Intn(len(goals))]; g > 0 {
			req.Goal = goalOf(g)
		}
		ops = append(ops, placeOp{req: req})
	}
	return ops
}

// askFleet is the three-node fleet the seeded place/release streams run
// on, two mix slots per node.
func askFleet(cache bool, dir string) Config {
	return Config{
		Nodes: []NodeSpec{
			{Name: "four", GPU: tinyGPU(4)},
			{Name: "two", GPU: tinyGPU(2)},
			{Name: "four-b", GPU: tinyGPU(4)},
		},
		Scheme:        core.SchemeRollover,
		Window:        10_000,
		MaxMixPerNode: 2,
		FastPath:      cache,
		JournalDir:    dir,
	}
}

// withoutDecisions strips the decision indexes, which depend on how many
// questions each node was asked.
func withoutDecisions(ps []Placement) []Placement {
	for i := range ps {
		ps[i].Decision = nil
	}
	return ps
}

// replayedRecords replays the decision journal of cfg's node i on a
// fresh decider, in index order, and returns its records, each with the
// verdict it decided: its own, or for a cache hit journaled by its key
// alone (keyOnly), the verdict the replayed cache gives for its mix and
// candidate — asked through Decide, which, unlike Restore, builds a
// reject's too. A key-only record whose key the cache lacks fails the
// test.
func replayedRecords(t testing.TB, cfg Config, i int) (recs []NodeDecision, keyOnly []bool) {
	t.Helper()
	path := filepath.Join(cfg.JournalDir, fmt.Sprintf("node-%d.jnl", i))
	j, err := journal.Open(path, headerHash(t, path))
	if err != nil {
		t.Fatal(err)
	}
	raw := j.Completed(decisionStage)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := cfg
	fresh.JournalDir = ""
	n, _, err := (&Fleet{}).buildNode(context.Background(), i, cfg.Nodes[i], fresh, map[config.GPU]*core.Session{})
	if err != nil {
		t.Fatal(err)
	}
	recs, keyOnly = make([]NodeDecision, len(raw)), make([]bool, len(raw))
	for k := range recs {
		if err := json.Unmarshal(raw[k], &recs[k]); err != nil {
			t.Fatalf("%s decision %d: %v", n.id, k, err)
		}
		specs, ids := verdict.MixSpecs(recs[k].Mix, recs[k].Candidate)
		v := recs[k].Verdict
		if keyOnly[k] = v == nil; keyOnly[k] {
			v, _, err = n.dec.Decide(context.Background(), specs, ids, func(context.Context, core.Scheme) (*core.Result, error) {
				return nil, errors.New("not in the replayed cache")
			})
		} else {
			_, _, err = n.dec.Restore(specs, ids, v)
		}
		if err != nil {
			t.Fatalf("%s decision %d: %v", n.id, k, err)
		}
		recs[k].Verdict = v
	}
	return recs, keyOnly
}

// checkCarried requires every place and migrate record of a journaled
// fleet (built from cfg) to name, in its node's journal, a decision
// record for the same job whose verdict is byte for byte the one the
// placement carries: for a cache hit, journaled by its key alone, the
// verdict the node's replayed cache gives for that mix and candidate;
// otherwise the record's own. A carried verdict comes from a key-only
// record exactly when the cache tier gave it, and exactly then the
// placement journal's record leaves it out; a journaled release carries
// no request or shares. Run it after Shutdown, when every record is
// flushed: it reads each journal through a fresh Open.
func checkCarried(t *testing.T, f *Fleet, cfg Config) {
	t.Helper()
	type replayed struct {
		recs    []NodeDecision
		keyOnly []bool
	}
	nodes := make(map[string]replayed)
	for i, n := range f.nodes {
		recs, keyOnly := replayedRecords(t, cfg, i)
		nodes[n.id] = replayed{recs, keyOnly}
	}
	journaled := placementRecords(t, cfg.JournalDir)
	ps := f.Placements()
	if len(journaled) != len(ps) {
		t.Fatalf("the placement journal holds %d records, the fleet %d", len(journaled), len(ps))
	}
	for i, p := range ps {
		jr := journaled[i]
		if p.Kind == KindRelease {
			if jr.Request != nil || jr.Shares != nil {
				t.Fatalf("placement %d: a journaled release carries its request or shares", p.Index)
			}
			continue
		}
		if p.Kind != KindPlace && p.Kind != KindMigrate {
			continue
		}
		if p.Decision == nil {
			t.Fatalf("placement %d (%s) carries no decision index", p.Index, p.Kind)
		}
		r, k := nodes[p.Node], *p.Decision
		if k >= len(r.recs) {
			t.Fatalf("placement %d names decision %d, which %s never journaled", p.Index, k, p.Node)
		}
		got, _ := json.Marshal(r.recs[k].Verdict)
		want, _ := json.Marshal(p.Verdict)
		if r.recs[k].JobID != p.JobID || !bytes.Equal(got, want) {
			t.Fatalf("placement %d carries %s decision %d, which decided %s with %s, not %s with %s", p.Index, p.Node, k, r.recs[k].JobID, got, p.JobID, want)
		}
		cache := p.Verdict.Tier == schema.TierCache
		if r.keyOnly[k] != cache {
			t.Fatalf("placement %d carries a %s verdict, but %s journaled decision %d key-only = %v", p.Index, p.Verdict.Tier, p.Node, k, r.keyOnly[k])
		}
		if (jr.Verdict == nil) != cache {
			t.Fatalf("placement %d carries a %s verdict, and its journal record leaves it out = %v", p.Index, p.Verdict.Tier, jr.Verdict == nil)
		}
		if jb, _ := json.Marshal(jr.Verdict); !cache && !bytes.Equal(jb, want) {
			t.Fatalf("placement %d journaled verdict %s, not %s", p.Index, jb, want)
		}
	}
}

// placementRecords reads the placement journal in dir as it was written.
func placementRecords(t *testing.T, dir string) []placementRecord {
	t.Helper()
	path := filepath.Join(dir, "placements.jnl")
	j, err := journal.Open(path, headerHash(t, path))
	if err != nil {
		t.Fatal(err)
	}
	raw := j.Completed(placementStage)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs := make([]placementRecord, len(raw))
	for k := range recs {
		if err := json.Unmarshal(raw[k], &recs[k]); err != nil {
			t.Fatalf("placement %d: %v", k, err)
		}
	}
	return recs
}

// TestPlacementMatchesAskEveryNode: asking candidates in best-fit order
// and stopping at the first admit places exactly as evaluating every
// candidate and then picking, while writing fewer node decisions, and
// every place record names the node decision whose verdict it carries. The verdict cache is off so that a node's answer
// does not depend on which questions it was asked before.
func TestPlacementMatchesAskEveryNode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation in -short")
	}
	decisions := func(f *Fleet) int {
		sum := 0
		for _, nv := range f.Nodes() {
			sum += nv.Decisions
		}
		return sum
	}
	fewer := false
	for _, seed := range []uint64{1, 2, 3, 4} {
		cfg := askFleet(false, t.TempDir())
		got, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(askFleet(false, ""))
		if err != nil {
			t.Fatal(err)
		}
		var placed []string
		refQueue := make(chan op, 1) // the reference places by hand, not through its loop
		for _, op := range placeStream(seed, 24) {
			if op.req.Workload == "" {
				if len(placed) == 0 {
					continue
				}
				k := op.pick % len(placed)
				id := placed[k]
				placed = append(placed[:k], placed[k+1:]...)
				if err := got.Release(id); err != nil {
					t.Fatalf("release %s: %v", id, err)
				}
				if err := ref.release(id); err != nil {
					t.Fatalf("reference release %s: %v", id, err)
				}
				continue
			}
			j, err := got.Submit(op.req)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			v, err := got.Wait(ctx, j.ID())
			cancel()
			if err != nil && !errors.Is(err, ErrNoPlacement) {
				t.Fatal(err)
			}
			if v.State == StatePlaced {
				placed = append(placed, v.ID)
			}
			shares, err := ref.validate(op.req)
			if err != nil {
				t.Fatal(err)
			}
			rj := ref.store.create(op.req, shares, refQueue)
			<-refQueue
			refPlace(t, ref, rj)
		}
		if g, w := withoutDecisions(got.Placements()), withoutDecisions(ref.Placements()); !reflect.DeepEqual(g, w) {
			i := 0
			for i < len(g) && i < len(w) && reflect.DeepEqual(g[i], w[i]) {
				i++
			}
			t.Fatalf("seed %d: placement %d differs from asking every node:\ngot:  %s\nwant: %s", seed, i, recordAt(g, i), recordAt(w, i))
		}
		dg, dr := decisions(got), decisions(ref)
		if dg > dr {
			t.Fatalf("seed %d: %d node decisions, asking every node took %d", seed, dg, dr)
		}
		fewer = fewer || dg < dr
		t.Logf("seed %d: %d placement records, node decisions %d (ask every node: %d)", seed, len(got.Placements()), dg, dr)
		mustShutdown(t, got)
		mustShutdown(t, ref)
		checkCarried(t, got, cfg)
	}
	if !fewer {
		t.Error("no seed asked fewer nodes than asking every node")
	}
}

// recordAt renders ps[i] for a failure message.
func recordAt(ps []Placement, i int) string {
	if i >= len(ps) {
		return "(none)"
	}
	b, _ := json.Marshal(ps[i])
	return string(b)
}
