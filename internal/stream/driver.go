package stream

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/schema"
)

// Outcome states a Backend reports for one arrival. Rejections and
// throttles are outcomes, not errors: the stream keeps flowing, the
// stats record them. A Backend error aborts the drive (infrastructure
// failure, not an admission decision).
const (
	StateAdmitted  = "admitted"
	StateRejected  = "rejected"
	StateThrottled = "throttled"
	StateFailed    = "failed"
)

// Outcome is one arrival's admission result.
type Outcome struct {
	// JobID is the backend's id for the job (release handle).
	JobID string
	// State is StateAdmitted, StateRejected, StateThrottled or
	// StateFailed.
	State string
	// Verdict is the admission verdict when the backend surfaced one
	// (nil for throttles and transport-less failures).
	Verdict *schema.Verdict
}

// Backend accepts stream submissions. Implementations: ServerBackend
// (the in-process qosd decision loop) and HTTPBackend (a live daemon's
// /v1 or /v2 API).
type Backend interface {
	// Submit submits one arrival and blocks until its terminal verdict.
	Submit(ctx context.Context, a Arrival) (Outcome, error)
	// Release frees an admitted job's slot.
	Release(ctx context.Context, jobID string) error
}

// Driver replays a Trace against a Backend in virtual-time order:
// arrivals submit serially (each waits for its verdict — qosd's
// decision loop is serial anyway), and admitted jobs are released when
// virtual time passes their arrival time plus hold. Because every
// interaction is ordered by the trace alone, the backend's decision
// sequence — and therefore its journal — is a deterministic function
// of the trace.
type Driver struct {
	Backend Backend
	// Pace > 0 replays arrivals in wall-clock time scaled by 1/Pace
	// (1.0 = real time, 2.0 = twice as fast). 0 submits back-to-back.
	Pace float64
	// MixSlots is the backend's admitted-mix capacity (qosd's MaxMix).
	// The decision loop holds every decision — reject included — until
	// the mix has a free slot, so a serial driver submitting into a full
	// mix would deadlock against its own pending releases. With MixSlots
	// set, the driver instead advances virtual time to the earliest
	// pending release before such a submit (deterministically: due-time
	// then seq order). 0 disables the guard; Run then fails with
	// ErrMixDeadlock if a full mix leaves nothing releasable.
	MixSlots int
}

// ErrMixDeadlock reports a drive wedged on capacity: every mix slot is
// held by a job with no scheduled release, so the next submission could
// never be decided.
var ErrMixDeadlock = errors.New("stream: admitted mix is full with no pending release; decision would block forever (set MixSlots or give tenants hold_ms)")

// TenantStats aggregates one tenant's (or the whole stream's) results.
type TenantStats struct {
	Arrivals  int `json:"arrivals"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Throttled int `json:"throttled"`
	Failed    int `json:"failed"`
	Released  int `json:"released"`
	// OwnGoalMisses counts rejections where the candidate itself could
	// not reach its goal next to the incumbent mix; CollateralRejects
	// counts rejections protecting an incumbent's goal. Together they
	// split "rejected" by whose contract would have broken.
	OwnGoalMisses     int `json:"own_goal_misses"`
	CollateralRejects int `json:"collateral_rejects"`
	// AdmitRate is Admitted over decided arrivals (admitted+rejected);
	// ViolationRate is OwnGoalMisses over the same denominator.
	AdmitRate     float64 `json:"admit_rate"`
	ViolationRate float64 `json:"violation_rate"`
	// Time-to-verdict wall-clock percentiles (nearest-rank) across this
	// tenant's decided arrivals.
	VerdictP50Ns int64 `json:"verdict_p50_ns"`
	VerdictP90Ns int64 `json:"verdict_p90_ns"`
	VerdictP99Ns int64 `json:"verdict_p99_ns"`
}

// TenantReport is one tenant's stats with its identity.
type TenantReport struct {
	Name string `json:"name"`
	TenantStats
}

// Report is one drive's result.
type Report struct {
	Process   string         `json:"process"`
	TraceHash string         `json:"trace_hash"`
	Arrivals  int            `json:"arrivals"`
	WallMs    int64          `json:"wall_ms"`
	Totals    TenantStats    `json:"totals"`
	Tenants   []TenantReport `json:"tenants"`
}

// tenantAcc accumulates one tenant's raw observations during a drive.
type tenantAcc struct {
	stats TenantStats
	lats  []time.Duration
}

// pendingRelease is one admitted job awaiting its virtual release time.
type pendingRelease struct {
	dueUs  int64
	seq    int
	jobID  string
	tenant string
}

// releaseHeap orders releases by (dueUs, seq) — the seq tiebreak keeps
// same-instant releases in submission order, deterministically.
type releaseHeap []pendingRelease

func (h releaseHeap) Len() int { return len(h) }
func (h releaseHeap) Less(i, j int) bool {
	if h[i].dueUs != h[j].dueUs {
		return h[i].dueUs < h[j].dueUs
	}
	return h[i].seq < h[j].seq
}
func (h releaseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)   { *h = append(*h, x.(pendingRelease)) }
func (h *releaseHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run drives the trace to completion (including releasing every still-
// held job at the end, so a fresh backend ends the drive empty) and
// returns the per-tenant report.
func (d *Driver) Run(ctx context.Context, tr *Trace) (*Report, error) {
	if d.Backend == nil {
		return nil, fmt.Errorf("%w: driver needs a backend", ErrBadSpec)
	}
	hash, err := tr.Hash()
	if err != nil {
		return nil, err
	}
	accs := make(map[string]*tenantAcc)
	acc := func(name string) *tenantAcc {
		a := accs[name]
		if a == nil {
			a = &tenantAcc{}
			accs[name] = a
		}
		return a
	}
	var rel releaseHeap
	active := 0 // admitted and not yet released (mix occupancy)
	releaseOne := func() error {
		r := heap.Pop(&rel).(pendingRelease)
		if err := d.Backend.Release(ctx, r.jobID); err != nil {
			return fmt.Errorf("stream: release %s (tenant %s): %w", r.jobID, r.tenant, err)
		}
		active--
		acc(r.tenant).stats.Released++
		return nil
	}
	drainUntil := func(cutUs int64) error {
		for len(rel) > 0 && rel[0].dueUs <= cutUs {
			if err := releaseOne(); err != nil {
				return err
			}
		}
		return nil
	}
	// ensureSlot keeps the serial submit from deadlocking against its
	// own pending releases: with the mix at capacity, virtual time jumps
	// to the earliest release so the next decision can run.
	ensureSlot := func() error {
		if d.MixSlots <= 0 {
			return nil
		}
		for active >= d.MixSlots {
			if len(rel) == 0 {
				return ErrMixDeadlock
			}
			if err := releaseOne(); err != nil {
				return err
			}
		}
		return nil
	}

	start := time.Now()
	for i := range tr.Events {
		ev := &tr.Events[i]
		if err := drainUntil(ev.TUs); err != nil {
			return nil, err
		}
		if err := ensureSlot(); err != nil {
			return nil, err
		}
		if d.Pace > 0 {
			due := start.Add(time.Duration(float64(ev.TUs) / d.Pace * float64(time.Microsecond)))
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := d.Backend.Submit(ctx, *ev)
		lat := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("stream: arrival %d (tenant %s): %w", ev.Seq, ev.Tenant, err)
		}
		a := acc(ev.Tenant)
		a.stats.Arrivals++
		switch out.State {
		case StateAdmitted:
			a.stats.Admitted++
			a.lats = append(a.lats, lat)
			active++
			if ev.HoldUs > 0 {
				heap.Push(&rel, pendingRelease{dueUs: ev.TUs + ev.HoldUs, seq: ev.Seq, jobID: out.JobID, tenant: ev.Tenant})
			}
		case StateRejected:
			a.stats.Rejected++
			a.lats = append(a.lats, lat)
			if v := out.Verdict; v != nil && v.Candidate.IsQoS && !v.Candidate.Reached {
				a.stats.OwnGoalMisses++
			} else {
				a.stats.CollateralRejects++
			}
		case StateThrottled:
			a.stats.Throttled++
		default:
			a.stats.Failed++
		}
	}
	// Release everything still held so the backend ends the drive with
	// an empty mix (and the journal records the full lifecycle).
	if err := drainUntil(int64(1) << 62); err != nil {
		return nil, err
	}
	wall := time.Since(start)

	rep := &Report{
		Process:   tr.Spec.Process,
		TraceHash: hash,
		Arrivals:  len(tr.Events),
		WallMs:    wall.Milliseconds(),
	}
	names := make([]string, 0, len(accs))
	for name := range accs {
		names = append(names, name)
	}
	sort.Strings(names)
	var totalLats []time.Duration
	for _, name := range names {
		a := accs[name]
		finalize(&a.stats, a.lats)
		rep.Tenants = append(rep.Tenants, TenantReport{Name: name, TenantStats: a.stats})
		rep.Totals.Arrivals += a.stats.Arrivals
		rep.Totals.Admitted += a.stats.Admitted
		rep.Totals.Rejected += a.stats.Rejected
		rep.Totals.Throttled += a.stats.Throttled
		rep.Totals.Failed += a.stats.Failed
		rep.Totals.Released += a.stats.Released
		rep.Totals.OwnGoalMisses += a.stats.OwnGoalMisses
		rep.Totals.CollateralRejects += a.stats.CollateralRejects
		totalLats = append(totalLats, a.lats...)
	}
	finalize(&rep.Totals, totalLats)
	return rep, nil
}

// finalize computes the derived rates and latency percentiles.
func finalize(s *TenantStats, lats []time.Duration) {
	if decided := s.Admitted + s.Rejected; decided > 0 {
		s.AdmitRate = float64(s.Admitted) / float64(decided)
		s.ViolationRate = float64(s.OwnGoalMisses) / float64(decided)
	}
	if len(lats) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.VerdictP50Ns = percentile(sorted, 0.50).Nanoseconds()
	s.VerdictP90Ns = percentile(sorted, 0.90).Nanoseconds()
	s.VerdictP99Ns = percentile(sorted, 0.99).Nanoseconds()
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(p*float64(len(sorted)))+0.5) - 1 // rounded, never fused: make arch-check
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
