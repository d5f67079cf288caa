package verdict

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
)

// fakeSim stands in for the what-if simulation. It counts calls, keeps
// the scheme each was handed, and returns a result that depends on the
// ORDER of the specs (slot i of an n-kernel mix retains 1/(n+i) of its
// isolated IPC) — slots are not interchangeable in the real simulator
// either — so a verdict served from the cache is distinguishable from
// one simulated afresh in another order.
type fakeSim struct {
	calls   int
	schemes []core.Scheme
	err     error
}

func (f *fakeSim) over(specs []core.KernelSpec) func(context.Context, core.Scheme) (*core.Result, error) {
	return func(_ context.Context, sc core.Scheme) (*core.Result, error) {
		f.calls++
		f.schemes = append(f.schemes, sc)
		if f.err != nil {
			return nil, f.err
		}
		res := &core.Result{Scheme: sc, Cycles: 1000, AllReached: true}
		for i, sp := range specs {
			iso := 10 * float64(len(sp.Workload))
			kr := core.KernelResult{Name: sp.Workload, IsolatedIPC: iso, IPC: iso / float64(len(specs)+i)}
			kr.NormThroughput = kr.IPC / iso
			if sp.GoalFrac > 0 || sp.GoalIPC > 0 {
				kr.IsQoS, kr.GoalIPC = true, sp.GoalIPC
				if kr.GoalIPC == 0 {
					kr.GoalIPC = sp.GoalFrac * iso
				}
				kr.GoalRatio = kr.IPC / kr.GoalIPC
				kr.Reached = kr.GoalRatio >= 1
				res.AllReached = res.AllReached && kr.Reached
			}
			res.Kernels = append(res.Kernels, kr)
		}
		return res, nil
	}
}

// testDecider binds a decider to a real session — for its config hash
// only; nothing here simulates — evaluating under Rollover.
func testDecider(t *testing.T, dc DeciderConfig) *Decider {
	t.Helper()
	sess, err := core.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	dc.Scheme = core.SchemeRollover
	d, err := NewDecider(sess, dc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// ctx is every test decision's context: nothing here is canceled.
var ctx = context.Background()

func idsFor(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return ids
}

// TestConfigHashAndSignaturePinned pins, as literals, the two hashes
// every cache key and every sig: evidence ref is made of: the default
// session's config hash and one mix's signature. Journals and caches
// written before must keep their keys, so neither may move.
func TestConfigHashAndSignaturePinned(t *testing.T) {
	const (
		wantConfig = "bccd48d6775e2440c8ca17c8c833c6fc77c11a1a77d25c060d9915efb0cda227"
		wantSig    = "825a5f11b65522b61faafdf6f61fa23b0e628615bd30f34fd6fd97827a310ea0"
	)
	d := testDecider(t, DeciderConfig{FastPath: true})
	if got := d.ConfigHash(); got != wantConfig {
		t.Fatalf("ConfigHash() = %s, want %s", got, wantConfig)
	}
	specs := []core.KernelSpec{{Workload: "lbm"}, {Workload: "histo", GoalIPC: 20}, {Workload: "sgemm", GoalFrac: 0.5}}
	if got := Signature(KernelSigsOf(specs), core.SchemeRollover.Name(), d.ConfigHash()); got != wantSig {
		t.Fatalf("Signature = %s, want %s", got, wantSig)
	}
	var sim fakeSim
	v, _, err := d.Decide(ctx, specs, idsFor("p", 3), sim.over(specs))
	if err != nil {
		t.Fatal(err)
	}
	if want := "sig:" + wantSig[:16]; v.EvidenceRef != want {
		t.Fatalf("evidence ref %s, want %s", v.EvidenceRef, want)
	}
}

func TestDecideFastPathOffSimulatesEveryTime(t *testing.T) {
	d := testDecider(t, DeciderConfig{})
	specs := []core.KernelSpec{{Workload: "lbm"}, {Workload: "sgemm", GoalFrac: 0.5}}
	var sim fakeSim
	for i := 1; i <= 3; i++ {
		v, miss, err := d.Decide(ctx, specs, idsFor("j", 2), sim.over(specs))
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier != schema.TierSim || sim.calls != i {
			t.Fatalf("decision %d: tier %s after %d sim calls, want sim every time", i, v.Tier, sim.calls)
		}
		if miss {
			t.Fatalf("decision %d: a cache miss counted with the fast path off", i)
		}
	}
	if d.CacheLen() != 0 {
		t.Fatalf("cache holds %d verdicts with the fast path off", d.CacheLen())
	}
}

// TestDecideCacheHitInAnyIncumbentOrder: once a mix is decided, the
// same kernels behind the same candidate in every incumbent order are a
// cache verdict — sim not called — whose outcomes are the first run's,
// moved to the new request's positions and carrying its job ids.
func TestDecideCacheHitInAnyIncumbentOrder(t *testing.T) {
	d := testDecider(t, DeciderConfig{FastPath: true})
	incumbents := []core.KernelSpec{
		{Workload: "sgemm", GoalFrac: 0.2},
		{Workload: "lbm"},
		{Workload: "histo", GoalIPC: 7},
	}
	cand := core.KernelSpec{Workload: "mriq", GoalFrac: 0.1}
	var sim fakeSim
	first := append(append([]core.KernelSpec(nil), incumbents...), cand)
	v0, miss, err := d.Decide(ctx, first, idsFor("first", 4), sim.over(first))
	if err != nil {
		t.Fatal(err)
	}
	if v0.Tier != schema.TierSim || !miss || sim.calls != 1 {
		t.Fatalf("first decision: tier %s, miss %v, %d sim calls", v0.Tier, miss, sim.calls)
	}
	want := map[string]schema.KernelOutcome{v0.Candidate.Workload: v0.Candidate}
	for _, o := range v0.Incumbents {
		want[o.Workload] = o
	}

	for n, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		specs := make([]core.KernelSpec, 0, 4)
		for _, p := range perm {
			specs = append(specs, incumbents[p])
		}
		specs = append(specs, cand)
		ids := idsFor(fmt.Sprintf("perm%d", n), 4)
		v, miss, err := d.Decide(ctx, specs, ids, sim.over(specs))
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier != schema.TierCache || miss || sim.calls != 1 {
			t.Fatalf("order %v: tier %s, miss %v, %d sim calls; want a cache verdict and no simulation", perm, v.Tier, miss, sim.calls)
		}
		if v.Decision != v0.Decision || v.EvidenceRef != v0.EvidenceRef || v.Cycles != v0.Cycles {
			t.Fatalf("order %v: verdict %+v does not carry the first run's evidence %+v", perm, v, v0)
		}
		outs := append(append([]schema.KernelOutcome(nil), v.Incumbents...), v.Candidate)
		for i, o := range outs {
			w := want[specs[i].Workload]
			w.JobID = ids[i]
			if o != w {
				t.Fatalf("order %v position %d: outcome %+v, want %+v", perm, i, o, w)
			}
		}
		if fmt.Sprint(v.MixBefore) != fmt.Sprint(ids[:3]) {
			t.Fatalf("order %v: mix_before %v, want %v", perm, v.MixBefore, ids[:3])
		}
	}
}

// TestDecideEffectiveScheme: a mix with a goal to protect simulates
// under the owner's scheme; a goal-less mix has no contract, so sim is
// handed SchemeNone (the QoS manager refuses goal-less co-runs) and the
// verdict says so.
func TestDecideEffectiveScheme(t *testing.T) {
	d := testDecider(t, DeciderConfig{FastPath: true})
	var sim fakeSim
	goalless := []core.KernelSpec{{Workload: "lbm"}, {Workload: "sgemm"}}
	v, _, err := d.Decide(ctx, goalless, idsFor("a", 2), sim.over(goalless))
	if err != nil {
		t.Fatal(err)
	}
	if sim.schemes[0] != core.SchemeNone || v.Scheme != core.SchemeNone.Name() || !v.IsAdmitted() {
		t.Fatalf("goal-less mix: sim handed %s, verdict scheme %q admitted %v; want none, admitted",
			sim.schemes[0].Name(), v.Scheme, v.IsAdmitted())
	}
	withGoal := []core.KernelSpec{{Workload: "lbm"}, {Workload: "sgemm", GoalIPC: 1}}
	if v, _, err = d.Decide(ctx, withGoal, idsFor("b", 2), sim.over(withGoal)); err != nil {
		t.Fatal(err)
	}
	if sim.schemes[1] != core.SchemeRollover || v.Scheme != core.SchemeRollover.Name() {
		t.Fatalf("mix with a goal: sim handed %s, verdict scheme %q; want rollover", sim.schemes[1].Name(), v.Scheme)
	}
}

func TestDecideSimErrorCachesNothing(t *testing.T) {
	d := testDecider(t, DeciderConfig{FastPath: true})
	specs := []core.KernelSpec{{Workload: "sgemm", GoalFrac: 0.5}}
	boom := errors.New("simulator fault")
	sim := fakeSim{err: boom}
	v, miss, err := d.Decide(ctx, specs, idsFor("a", 1), sim.over(specs))
	if !errors.Is(err, boom) || v != nil {
		t.Fatalf("Decide = (%+v, %v), want the sim error and no verdict", v, err)
	}
	if !miss || d.CacheLen() != 0 {
		t.Fatalf("after a failed sim: miss %v, cache holds %d; want a counted miss and nothing cached", miss, d.CacheLen())
	}
	sim.err = nil
	for i, tier := range []string{schema.TierSim, schema.TierCache} {
		if v, _, err = d.Decide(ctx, specs, idsFor("b", 1), sim.over(specs)); err != nil || v.Tier != tier {
			t.Fatalf("retry %d: (%+v, %v), want tier %s", i, v, err, tier)
		}
	}
	if sim.calls != 2 {
		t.Fatalf("sim called %d times, want 2 (the fault and one retry)", sim.calls)
	}
}

// TestDecideGuardsTheWhatIf: a panicking sim comes back from Decide as a
// *core.PanicError — the process survives — with nothing cached and the
// miss still reported, so the next decision of the same mix simulates;
// a sim that outlives EvalTimeout is handed an expired context and fails
// as context.DeadlineExceeded.
func TestDecideGuardsTheWhatIf(t *testing.T) {
	d := testDecider(t, DeciderConfig{FastPath: true, EvalTimeout: 10 * time.Millisecond})
	specs := []core.KernelSpec{{Workload: "lbm"}, {Workload: "sgemm", GoalFrac: 0.5}}
	v, miss, err := d.Decide(ctx, specs, idsFor("p", 2), func(context.Context, core.Scheme) (*core.Result, error) {
		panic("simulator fault")
	})
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Value != "simulator fault" || v != nil {
		t.Fatalf("panicking sim: Decide = (%+v, %v), want a *core.PanicError and no verdict", v, err)
	}
	if !miss || d.CacheLen() != 0 {
		t.Fatalf("after a panic: miss %v, cache holds %d; want a counted miss and nothing cached", miss, d.CacheLen())
	}

	v, miss, err = d.Decide(ctx, specs, idsFor("w", 2), func(ctx context.Context, _ core.Scheme) (*core.Result, error) {
		<-ctx.Done() // a wedged what-if: only its deadline ends it
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) || v != nil || !miss || d.CacheLen() != 0 {
		t.Fatalf("wedged sim: Decide = (%+v, miss %v, %v), cache %d; want DeadlineExceeded, a miss, nothing cached", v, miss, err, d.CacheLen())
	}

	var sim fakeSim
	if v, _, err = d.Decide(ctx, specs, idsFor("n", 2), sim.over(specs)); err != nil || v.Tier != schema.TierSim || sim.calls != 1 {
		t.Fatalf("next decision: (%+v, %v) after %d sim calls, want one fresh simulation", v, err, sim.calls)
	}
}

// loggedDecision is what a decision journal keeps of one decision, in
// the journaled vocabulary Restore's callers lower with MixSpecs.
type loggedDecision struct {
	Mix       []MixEntry      `json:"mix,omitempty"`
	Candidate MixEntry        `json:"candidate"`
	Verdict   *schema.Verdict `json:"verdict"`
}

// TestRestoreContinuesIdentically is the recovery property: a decider
// that Restores the first k decisions of another's log must decide the
// following ones exactly as the other did — same verdict bytes, deciding
// tier included, and the same decisions reaching the simulator. It is
// checked at every cut of a log long enough, over few enough mixes, that
// a 4-entry cache hits, misses and evicts throughout (an LRU forgets a
// wrong recency within a few decisions, so one cut would see little).
func TestRestoreContinuesIdentically(t *testing.T) {
	dc := DeciderConfig{FastPath: true, CacheSize: 4}

	alphabet := []core.KernelSpec{
		{Workload: "sgemm", GoalFrac: 0.5},
		{Workload: "sgemm", GoalFrac: 0.98},
		{Workload: "lbm"},
		{Workload: "histo", GoalIPC: 20},
	}
	rng := rand.New(rand.NewSource(1))
	entry := func(i int) MixEntry {
		sp := alphabet[rng.Intn(len(alphabet))]
		return MixEntry{JobID: fmt.Sprintf("job-%04d", i), Workload: sp.Workload, GoalFrac: sp.GoalFrac, GoalIPC: sp.GoalIPC}
	}
	decide := func(d *Decider, sim *fakeSim, ld loggedDecision) []byte {
		specs, ids := MixSpecs(ld.Mix, ld.Candidate)
		v, _, err := d.Decide(ctx, specs, ids, sim.over(specs))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// A decides the whole sequence; its log goes through JSON, as a
	// journal's would.
	const logged, tail = 200, 8
	var simA fakeSim
	a := testDecider(t, dc)
	log := make([]loggedDecision, logged+tail)
	want := make([][]byte, len(log))
	tiers := map[string]int{}
	for i := range log {
		if rng.Intn(2) == 1 {
			log[i].Mix = []MixEntry{entry(2 * i)}
		}
		log[i].Candidate = entry(2*i + 1)
		want[i] = decide(a, &simA, log[i])
		if err := json.Unmarshal(want[i], &log[i].Verdict); err != nil {
			t.Fatal(err)
		}
		tiers[log[i].Verdict.Tier]++
	}
	if tiers[schema.TierCache] < 20 || simA.calls < 50 {
		t.Fatalf("log too tame to test recovery: tiers %v, %d sim calls", tiers, simA.calls)
	}

	for k := 1; k <= logged; k++ {
		var simB fakeSim
		b := testDecider(t, dc)
		for _, ld := range log[:k] {
			specs, _ := MixSpecs(ld.Mix, ld.Candidate)
			b.Restore(specs, ld.Verdict)
		}
		if simB.calls != 0 {
			t.Fatalf("cut %d: Restore simulated %d time(s)", k, simB.calls)
		}
		for i := k; i < k+tail; i++ {
			before := simB.calls
			if got := decide(b, &simB, log[i]); !bytes.Equal(got, want[i]) {
				t.Fatalf("restored after %d decisions, decision %d diverged:\n uninterrupted %s\n restored      %s", k, i, want[i], got)
			}
			if simulated := simB.calls > before; simulated != (log[i].Verdict.Tier == schema.TierSim) {
				t.Fatalf("restored after %d decisions, decision %d: simulated = %v against a logged %s verdict", k, i, simulated, log[i].Verdict.Tier)
			}
		}
	}
}
