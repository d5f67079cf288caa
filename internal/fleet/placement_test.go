package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/schema"
)

// refPlace is the placement rule the serial policy-ordered ask must
// reproduce: every capacity-feasible node evaluates the job, then the
// policy picks among the admitting ones (best-fit: least leftover
// capacity, the earlier node on ties within capEps; first-fit: the
// lowest index), then the repartition fallback, then rejection. It runs
// on the test goroutine against a fleet whose loop is never sent work.
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
		if pick == nil || (!f.firstFit && n.leftover(j.shares) < pick.n.leftover(j.shares)-capEps) {
			pick = &answer{n: n, spec: spec, v: v, idx: idx}
		}
	}
	if pick != nil {
		if err := f.commitPlace(j, pick.n, pick.spec, pick.v, pick.idx, false); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !f.noRepart && f.repartition(j) {
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
// on: two policies, two mix slots per node.
func askFleet(firstFit, cache bool, dir string) Config {
	return Config{
		Nodes: []NodeSpec{
			{Name: "four", GPU: tinyGPU(4)},
			{Name: "two", GPU: tinyGPU(2)},
			{Name: "four-b", GPU: tinyGPU(4)},
		},
		Scheme:        core.SchemeRollover,
		Window:        10_000,
		MaxMixPerNode: 2,
		FirstFit:      firstFit,
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

// checkCarried requires every place and migrate record of a journaled
// fleet to name, in its node's journal, a decision record for the same
// job whose verdict JSON is the placement's. Run it after Shutdown, when
// every record is flushed: it reads each node journal through a fresh
// Open.
func checkCarried(t *testing.T, f *Fleet) {
	t.Helper()
	decisions := make(map[string]map[int]json.RawMessage) // node id -> its journal's decision records
	for _, p := range f.Placements() {
		if p.Kind != KindPlace && p.Kind != KindMigrate {
			continue
		}
		if p.Decision == nil {
			t.Fatalf("placement %d (%s) carries no decision index", p.Index, p.Kind)
		}
		if decisions[p.Node] == nil {
			path := f.nodeByID(p.Node).jnl.Path()
			j, err := journal.Open(path, headerHash(t, path))
			if err != nil {
				t.Fatal(err)
			}
			decisions[p.Node] = j.Completed(decisionStage)
			j.Close()
		}
		raw, ok := decisions[p.Node][*p.Decision]
		if !ok {
			t.Fatalf("placement %d names decision %d, which %s never journaled", p.Index, *p.Decision, p.Node)
		}
		var d struct {
			JobID   string          `json:"job_id"`
			Verdict json.RawMessage `json:"verdict"`
		}
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(p.Verdict)
		if d.JobID != p.JobID || !bytes.Equal(d.Verdict, want) {
			t.Fatalf("placement %d carries %s decision %d, which decided %s with %s, not %s with %s", p.Index, p.Node, *p.Decision, d.JobID, d.Verdict, p.JobID, want)
		}
	}
}

// TestPlacementMatchesAskEveryNode: asking candidates in policy order
// and stopping at the first admit places exactly as evaluating every
// candidate and then picking, under both policies, while writing fewer
// node decisions, and every place record names the node decision whose
// verdict it carries. The verdict cache is off so that a node's answer
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
	for _, firstFit := range []bool{false, true} {
		fewer := false
		for _, seed := range []uint64{1, 2, 3, 4} {
			got, err := New(askFleet(firstFit, false, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(askFleet(firstFit, false, ""))
			if err != nil {
				t.Fatal(err)
			}
			var placed []string
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
				refPlace(t, ref, ref.store.create(op.req, shares))
			}
			if g, w := withoutDecisions(got.Placements()), withoutDecisions(ref.Placements()); !reflect.DeepEqual(g, w) {
				i := 0
				for i < len(g) && i < len(w) && reflect.DeepEqual(g[i], w[i]) {
					i++
				}
				t.Fatalf("firstFit=%v seed %d: placement %d differs from asking every node:\ngot:  %s\nwant: %s", firstFit, seed, i, recordAt(g, i), recordAt(w, i))
			}
			dg, dr := decisions(got), decisions(ref)
			if dg > dr {
				t.Fatalf("firstFit=%v seed %d: %d node decisions, asking every node took %d", firstFit, seed, dg, dr)
			}
			fewer = fewer || dg < dr
			t.Logf("firstFit=%v seed %d: %d placement records, node decisions %d (ask every node: %d)", firstFit, seed, len(got.Placements()), dg, dr)
			mustShutdown(t, got)
			mustShutdown(t, ref)
			checkCarried(t, got)
		}
		if !fewer {
			t.Errorf("firstFit=%v: no seed asked fewer nodes than asking every node", firstFit)
		}
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
