// Package verdict is the admission decision both serving planes share.
// Its one entry point is Decider.Decide: given the hypothetical mix
// (the admitted kernels plus the candidate) and a function that runs the
// what-if simulation, it returns the verdict — from the exact-match
// cache, or by calling the simulation, scoring its result against the
// paper's QoS contract (admit only if every goal holds) and caching it.
// The owner supplies the simulation — the /v1 decision loop a traced run
// on a pooled session, a fleet node and the Replayer a plain Session.Run
// — and nothing else of the protocol;
// Decider.Restore replays a journaled decision into the cache so a
// restarted owner continues where the stopped one left off.
//
// This file is the cache tier: a canonical mix signature (order- and
// identity-invariant hash of the hypothetical mix, the effective scheme
// and the simulator configuration) and a bounded LRU cache mapping
// signatures to decided verdicts. Two submissions whose hypothetical
// mixes contain the same kernels with the same goals — regardless of
// submission order, job ids or client labels — share one signature, so
// the second decision is a cache hit instead of a simulation.
//
// Job ids and labels cannot change a simulated outcome; kernel order
// can. The simulator takes a mix's kernels in the order given, and one
// mix in two orders can meet every goal in one and miss one in the
// other. The cache then answers the second order with the first
// order's verdict, which can be a false admit, and an owner's answer
// depends on which mixes it was asked before. Keying on the ordered
// mix, or always simulating the canonical order, would fix that and
// change recorded verdicts.
//
// Determinism contract: a cache is driven by one goroutine at a time
// (its Decider's owner), in decision order. Eviction is plain LRU over
// that serial access sequence, so a serial replay of the decision log
// evolves an identical cache and reproduces every hit, miss and
// eviction — and therefore every verdict's deciding tier.
package verdict

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"

	"repro/internal/schema"
)

// KernelSig is the signature-relevant slice of one kernel of the
// hypothetical mix. Job identity and client labels are deliberately
// absent: they cannot change a simulation's outcome.
type KernelSig struct {
	Workload string  `json:"w"`
	GoalFrac float64 `json:"gf,omitempty"`
	GoalIPC  float64 `json:"gi,omitempty"`
}

// Canonical returns the permutation that sorts sigs into canonical
// order: perm[i] is the index in sigs of the i-th canonical kernel. The
// sort is stable (ties keep submission order), so the mapping between
// request positions and cached outcomes is itself deterministic.
func Canonical(sigs []KernelSig) []int {
	perm := make([]int, len(sigs))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		x, y := sigs[perm[a]], sigs[perm[b]]
		if x.Workload != y.Workload {
			return x.Workload < y.Workload
		}
		if x.GoalFrac != y.GoalFrac {
			return x.GoalFrac < y.GoalFrac
		}
		return x.GoalIPC < y.GoalIPC
	})
	return perm
}

// Signature hashes the canonicalized mix: sorted kernel sigs, the
// effective scheme name, and the configuration hash binding device,
// window and seed. Mixes differing only in kernel order or job identity
// collide by construction, although kernel order (unlike job identity)
// can change the simulated outcome; mixes under different
// configurations or schemes never do (the hash input differs).
func Signature(sigs []KernelSig, scheme, configHash string) string {
	sorted := make([]KernelSig, len(sigs))
	for i, p := range Canonical(sigs) {
		sorted[i] = sigs[p]
	}
	b, err := json.Marshal(struct {
		Kernels []KernelSig `json:"kernels"`
		Scheme  string      `json:"scheme"`
		Config  string      `json:"config"`
	}{sorted, scheme, configHash})
	if err != nil {
		// KernelSig marshals unconditionally; keep the signature total.
		b = []byte(err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Cached is one stored sim verdict, with per-kernel outcomes in
// canonical order and job ids stripped. On a hit the caller maps outcomes
// back to the current request's positions via Canonical and re-attaches
// its own job ids.
type Cached struct {
	Admitted bool
	Scheme   string
	Cycles   int64
	Outcomes []schema.KernelOutcome
}

// Cache is a bounded LRU of decided verdicts keyed by mix signature.
// Get and Put are called only by the Decider's owner; the mutex exists so
// Len can be read from HTTP handlers without a race.
type Cache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key string
	val Cached
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the verdict stored under sig, refreshing its recency.
func (c *Cache) Get(sig string) (Cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[sig]
	if !ok {
		return Cached{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores (or refreshes) a verdict, evicting the least recently used
// entry beyond capacity.
func (c *Cache) Put(sig string, v Cached) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[sig]; ok {
		el.Value.(*cacheEntry).val = v
		c.order.MoveToFront(el)
		return
	}
	c.byKey[sig] = c.order.PushFront(&cacheEntry{key: sig, val: v})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached verdicts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the configured capacity.
func (c *Cache) Cap() int { return c.cap }
