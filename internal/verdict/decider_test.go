package verdict

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/perfmodel"
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

func (f *fakeSim) over(specs []core.KernelSpec) func(core.Scheme) (*core.Result, error) {
	return func(sc core.Scheme) (*core.Result, error) {
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

func idsFor(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return ids
}

func TestDecideFastPathOffSimulatesEveryTime(t *testing.T) {
	d := testDecider(t, DeciderConfig{})
	specs := []core.KernelSpec{{Workload: "lbm"}, {Workload: "sgemm", GoalFrac: 0.5}}
	var sim fakeSim
	for i := 1; i <= 3; i++ {
		v, fr, err := d.Decide(specs, idsFor("j", 2), sim.over(specs))
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier != schema.TierSim || sim.calls != i {
			t.Fatalf("decision %d: tier %s after %d sim calls, want sim every time", i, v.Tier, sim.calls)
		}
		if fr != (FastResult{}) {
			t.Fatalf("decision %d: %+v with the fast path off", i, fr)
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
	v0, fr, err := d.Decide(first, idsFor("first", 4), sim.over(first))
	if err != nil {
		t.Fatal(err)
	}
	if v0.Tier != schema.TierSim || !fr.CacheMiss || fr.ModelEscape || sim.calls != 1 {
		t.Fatalf("first decision: tier %s, %+v, %d sim calls", v0.Tier, fr, sim.calls)
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
		v, fr, err := d.Decide(specs, ids, sim.over(specs))
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier != schema.TierCache || fr != (FastResult{}) || sim.calls != 1 {
			t.Fatalf("order %v: tier %s, %+v, %d sim calls; want a cache verdict and no simulation", perm, v.Tier, fr, sim.calls)
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
	v, _, err := d.Decide(goalless, idsFor("a", 2), sim.over(goalless))
	if err != nil {
		t.Fatal(err)
	}
	if sim.schemes[0] != core.SchemeNone || v.Scheme != core.SchemeNone.Name() || !v.IsAdmitted() {
		t.Fatalf("goal-less mix: sim handed %s, verdict scheme %q admitted %v; want none, admitted",
			sim.schemes[0].Name(), v.Scheme, v.IsAdmitted())
	}
	withGoal := []core.KernelSpec{{Workload: "lbm"}, {Workload: "sgemm", GoalIPC: 1}}
	if v, _, err = d.Decide(withGoal, idsFor("b", 2), sim.over(withGoal)); err != nil {
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
	v, fr, err := d.Decide(specs, idsFor("a", 1), sim.over(specs))
	if !errors.Is(err, boom) || v != nil {
		t.Fatalf("Decide = (%+v, %v), want the sim error and no verdict", v, err)
	}
	if !fr.CacheMiss || d.CacheLen() != 0 {
		t.Fatalf("after a failed sim: %+v, cache holds %d; want a counted miss and nothing cached", fr, d.CacheLen())
	}
	sim.err = nil
	for i, tier := range []string{schema.TierSim, schema.TierCache} {
		if v, _, err = d.Decide(specs, idsFor("b", 1), sim.over(specs)); err != nil || v.Tier != tier {
			t.Fatalf("retry %d: (%+v, %v), want tier %s", i, v, err, tier)
		}
	}
	if sim.calls != 2 {
		t.Fatalf("sim called %d times, want 2 (the fault and one retry)", sim.calls)
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
// wrong recency within a few decisions, so one cut would see little); a
// lone-sgemm model puts model-origin verdicts and escapes in it too.
func TestRestoreContinuesIdentically(t *testing.T) {
	sess, err := core.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cfgHash, err := perfmodel.ConfigHash(sess.Config(), sess.Seed())
	if err != nil {
		t.Fatal(err)
	}
	fit := &perfmodel.Fit{Schema: perfmodel.FitSchema, ConfigHash: cfgHash, Isolated: map[string]float64{"sgemm": 50}}
	if err := fit.Finalize(); err != nil {
		t.Fatal(err)
	}
	model, err := perfmodel.New(fit)
	if err != nil {
		t.Fatal(err)
	}
	dc := DeciderConfig{FastPath: true, CacheSize: 4, Model: model}

	alphabet := []core.KernelSpec{
		{Workload: "sgemm", GoalFrac: 0.5},  // alone: the model admits
		{Workload: "sgemm", GoalFrac: 0.98}, // alone: inside the band, escapes
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
		v, _, err := d.Decide(specs, ids, sim.over(specs))
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
	if tiers[schema.TierCache] < 20 || tiers[schema.TierModel] < 5 || simA.calls < 50 {
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
