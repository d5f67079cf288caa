// Package verdict is the admission decision both serving planes share.
// Its one entry point is Decider.Decide: given the hypothetical mix
// (the admitted kernels plus the candidate) and a function that runs the
// what-if simulation, it returns the verdict — from the exact-match
// cache, or by calling the simulation, scoring its result against the
// paper's QoS contract (admit only if every goal holds) and caching it.
// The owner supplies the simulation — the /v1 decision loop a traced run
// on its runner's session, a fleet node and the Replayer a plain
// Session.Run — and nothing else of the protocol;
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
	"math"
	"strconv"
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
	less := func(x, y KernelSig) bool {
		if x.Workload != y.Workload {
			return x.Workload < y.Workload
		}
		if x.GoalFrac != y.GoalFrac {
			return x.GoalFrac < y.GoalFrac
		}
		return x.GoalIPC < y.GoalIPC
	}
	// A mix is a handful of kernels: a stable insertion sort, which
	// allocates nothing beyond perm.
	perm := make([]int, len(sigs))
	for i := range perm {
		perm[i] = i
		for j := i; j > 0 && less(sigs[perm[j]], sigs[perm[j-1]]); j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}

// Signature hashes the canonicalized mix: sorted kernel sigs, the
// effective scheme name, and the configuration hash binding device,
// window and seed. Mixes differing only in kernel order or job identity
// collide by construction, although kernel order (unlike job identity)
// can change the simulated outcome; mixes under different
// configurations or schemes never do (the hash input differs).
//
// The hash input is the JSON encoding of
//
//	{"kernels":[{"w":…,"gf":…,"gi":…},…],"scheme":…,"config":…}
//
// (gf and gi omitted when zero), appended directly rather than through
// json.Marshal, which it equals byte for byte; a string that needs an
// escape, or a goal JSON cannot encode, takes json.Marshal's path.
func Signature(sigs []KernelSig, scheme, configHash string) string {
	var buf [512]byte
	b, ok := appendSigInput(buf[:0], sigs, scheme, configHash)
	if !ok {
		b = marshalSigInput(sigs, scheme, configHash)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendSigInput appends Signature's hash input to b, and reports false
// when a string needs an escape or a goal is not finite.
func appendSigInput(b []byte, sigs []KernelSig, scheme, configHash string) ([]byte, bool) {
	b = append(b, `{"kernels":[`...)
	for i, p := range Canonical(sigs) {
		k := sigs[p]
		if i > 0 {
			b = append(b, ',')
		}
		if !schema.PlainString(k.Workload) || !finite(k.GoalFrac) || !finite(k.GoalIPC) {
			return b, false
		}
		b = append(b, `{"w":"`...)
		b = append(b, k.Workload...)
		b = append(b, '"')
		if k.GoalFrac != 0 {
			b = appendFloat(append(b, `,"gf":`...), k.GoalFrac)
		}
		if k.GoalIPC != 0 {
			b = appendFloat(append(b, `,"gi":`...), k.GoalIPC)
		}
		b = append(b, '}')
	}
	if !schema.PlainString(scheme) || !schema.PlainString(configHash) {
		return b, false
	}
	b = append(b, `],"scheme":"`...)
	b = append(b, scheme...)
	b = append(b, `","config":"`...)
	b = append(b, configHash...)
	return append(b, `"}`...), true
}

// marshalSigInput is Signature's hash input by json.Marshal.
func marshalSigInput(sigs []KernelSig, scheme, configHash string) []byte {
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
		// A NaN or infinite goal does not marshal; keep the signature
		// total.
		b = []byte(err.Error())
	}
	return b
}

// finite reports whether json.Marshal encodes f (it refuses NaN and ±Inf).
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends f as json.Marshal writes a float64: the shortest
// representation that round-trips, in %f form, except below 1e-6 or from
// 1e21 up in magnitude, which take %e form with a two-digit negative
// exponent shortened (1e-07 is written 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
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
