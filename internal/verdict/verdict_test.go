package verdict

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/schema"
)

// sigFixture builds a mixed QoS/best-effort kernel list with duplicate
// workloads and both goal forms, the shapes the daemon actually sees.
func sigFixture() []KernelSig {
	return []KernelSig{
		{Workload: "sgemm", GoalFrac: 0.95},
		{Workload: "lbm"},
		{Workload: "sgemm", GoalFrac: 0.50},
		{Workload: "histo", GoalIPC: 3.25},
		{Workload: "lbm", GoalFrac: 0.50},
	}
}

// TestSignatureInvariance is the canonicalization property test: any
// permutation of the kernel list — i.e. any submission order, any job
// naming, any goal ordering — produces the identical signature.
func TestSignatureInvariance(t *testing.T) {
	base := sigFixture()
	want := Signature(base, "rollover", "cfg-a")
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		perm := rng.Perm(len(base))
		shuffled := make([]KernelSig, len(base))
		for i, p := range perm {
			shuffled[i] = base[p]
		}
		if got := Signature(shuffled, "rollover", "cfg-a"); got != want {
			t.Fatalf("trial %d: permutation %v changed the signature:\n  %s\n  %s", trial, perm, got, want)
		}
	}
}

// TestSignatureSensitivity checks the other half of the contract:
// anything that can change a simulation outcome must change the
// signature — goals, workloads, scheme, configuration hash, mix size.
func TestSignatureSensitivity(t *testing.T) {
	base := sigFixture()
	ref := Signature(base, "rollover", "cfg-a")
	mutations := map[string]func() string{
		"different scheme": func() string { return Signature(base, "spart", "cfg-a") },
		"different config": func() string { return Signature(base, "rollover", "cfg-b") },
		"changed goal": func() string {
			m := append([]KernelSig(nil), base...)
			m[0].GoalFrac = 0.90
			return Signature(m, "rollover", "cfg-a")
		},
		"goal form swapped": func() string {
			// The same numeric value as GoalIPC instead of GoalFrac is a
			// different contract; it must not collide.
			m := append([]KernelSig(nil), base...)
			m[0] = KernelSig{Workload: "sgemm", GoalIPC: 0.95}
			return Signature(m, "rollover", "cfg-a")
		},
		"changed workload": func() string {
			m := append([]KernelSig(nil), base...)
			m[1].Workload = "mri-q"
			return Signature(m, "rollover", "cfg-a")
		},
		"dropped kernel": func() string { return Signature(base[:len(base)-1], "rollover", "cfg-a") },
		"duplicated kernel": func() string {
			return Signature(append(append([]KernelSig(nil), base...), base[0]), "rollover", "cfg-a")
		},
	}
	seen := map[string]string{ref: "reference"}
	for name, f := range mutations {
		got := f()
		if prev, dup := seen[got]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[got] = name
	}
}

// TestCanonicalStableTies pins the tie-breaking rule: identical specs
// keep their submission order, so the outcome-position mapping of a
// cache hit is deterministic.
func TestCanonicalStableTies(t *testing.T) {
	sigs := []KernelSig{
		{Workload: "lbm"},
		{Workload: "sgemm", GoalFrac: 0.5},
		{Workload: "lbm"},
	}
	perm := Canonical(sigs)
	want := []int{0, 2, 1} // lbm (first), lbm (second), sgemm
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("Canonical = %v, want %v", perm, want)
		}
	}
}

// TestCacheLRU exercises deterministic eviction: the least recently
// used signature (by Get/Put order) is dropped first.
func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	put := func(sig string) {
		c.Put(sig, Cached{Admitted: true, Outcomes: []schema.KernelOutcome{{Workload: sig}}})
	}
	put("a")
	put("b")
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	put("c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, sig := range []string{"a", "c"} {
		if v, ok := c.Get(sig); !ok || v.Outcomes[0].Workload != sig {
			t.Fatalf("%s lost or corrupted: %+v ok=%v", sig, v, ok)
		}
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Fatalf("Len=%d Cap=%d", c.Len(), c.Cap())
	}
	// Refreshing an existing key must not evict anything.
	put("a")
	if c.Len() != 2 {
		t.Fatalf("refresh grew the cache to %d", c.Len())
	}
}

// TestSignatureFuzzNoFalseCollisions hammers random distinct mixes and
// checks distinct canonical forms never share a signature.
func TestSignatureFuzzNoFalseCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	workloads := []string{"sgemm", "lbm", "histo", "mri-q", "stencil"}
	seen := make(map[string]string) // signature -> canonical description
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(3)
		sigs := make([]KernelSig, n)
		for i := range sigs {
			sigs[i] = KernelSig{Workload: workloads[rng.Intn(len(workloads))]}
			if rng.Intn(2) == 0 {
				sigs[i].GoalFrac = float64(5+rng.Intn(10)) / 20
			}
		}
		scheme := []string{"rollover", "spart"}[rng.Intn(2)]
		canon := fmt.Sprintf("%s|%v", scheme, func() []KernelSig {
			out := make([]KernelSig, n)
			for i, p := range Canonical(sigs) {
				out[i] = sigs[p]
			}
			return out
		}())
		sig := Signature(sigs, scheme, "cfg")
		if prev, ok := seen[sig]; ok && prev != canon {
			t.Fatalf("collision: %q and %q share %s", prev, canon, sig)
		}
		seen[sig] = canon
	}
}

// TestCanonicalMatchesStableSort: the insertion sort Canonical runs is
// the permutation a stable library sort gives, on mixes of every size a
// node or daemon signs, with duplicate kernels and ties throughout.
func TestCanonicalMatchesStableSort(t *testing.T) {
	alphabet := []KernelSig{
		{Workload: "sgemm", GoalFrac: 0.5}, {Workload: "sgemm", GoalFrac: 0.95}, {Workload: "sgemm"},
		{Workload: "lbm"}, {Workload: "lbm", GoalIPC: 20}, {Workload: "histo", GoalIPC: 3.25},
		{Workload: "histo", GoalFrac: 0.5, GoalIPC: 3.25},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		sigs := make([]KernelSig, rng.Intn(7))
		for i := range sigs {
			sigs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		want := make([]int, len(sigs))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			x, y := sigs[want[a]], sigs[want[b]]
			if x.Workload != y.Workload {
				return x.Workload < y.Workload
			}
			if x.GoalFrac != y.GoalFrac {
				return x.GoalFrac < y.GoalFrac
			}
			return x.GoalIPC < y.GoalIPC
		})
		if got := Canonical(sigs); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Canonical(%v) = %v, stable sort %v", sigs, got, want)
		}
	}
}
