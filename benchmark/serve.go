package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/verdict"
)

// The /v1 serving workloads: the path an operator runs — HTTP in,
// journal on, verdict out — driven by one closed-loop client over one
// loopback connection (stream.Driver with Pace 0: qosd's decision loop
// is serial, so 1/work_per_s is its saturation service time; an
// open-loop rate sweep is a later issue).
//
// Sizes (2 cores): the daemon evaluates over a 20k-cycle window (the
// shortest the simulator accepts: two epochs), so one what-if co-run
// costs 40-80 ms and a fresh daemon warms its cache in under 2 s.
const (
	serveWindow  = 20_000
	serveMixSize = 3
	warmArrivals = 250
	coldArrivals = 30
	ratePerSec   = 50
	restarts     = 5
)

func evalWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// daemon is one started qosd: the admission server (optionally fronting
// a fleet), and — unless in-process — its loopback listener.
type daemon struct {
	srv    *server.Server
	fl     *fleet.Fleet
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// v1Config is the daemon configuration every /v1 workload shares.
func v1Config(runner *exp.Runner, journalPath string) server.Config {
	return server.Config{
		Runner:      runner,
		Scheme:      core.SchemeRollover,
		MaxMix:      serveMixSize,
		JournalPath: journalPath,
		FastPath:    true,
	}
}

func newRunner() (*exp.Runner, error) {
	return exp.NewRunner(evalWorkers(), exp.WithSessionOptions(core.WithWindow(serveWindow)))
}

// startV1 starts a daemon on a fresh runner (so isolated-IPC baselines
// are measured again: a real start pays them). journalPath "" turns the
// journal off; listen false skips the HTTP listener.
func startV1(journalPath string, listen bool) (*daemon, error) {
	runner, err := newRunner()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(v1Config(runner, journalPath))
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv}
	if listen {
		if err := d.listen(); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// listen serves the daemon's handler on a loopback port. The client
// keeps exactly one connection: the closed loop never has two requests
// in flight.
func (d *daemon) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return nil
}

// stop shuts the listener and the decision loop down and waits for
// both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first error
	if d.hs != nil {
		d.client.CloseIdleConnections()
		if err := d.hs.Shutdown(ctx); err != nil {
			first = err
		}
		<-d.served
	}
	// Server.Shutdown drains an attached fleet too.
	if err := d.srv.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// backend returns the stream backend for this daemon: HTTP when it
// listens, in-process otherwise.
func (d *daemon) backend(v2 bool) stream.Backend {
	switch {
	case d.hs != nil:
		return &stream.HTTPBackend{BaseURL: d.url, Client: d.client, V2: v2}
	case v2:
		return fleetBackend{d.fl}
	default:
		return stream.ServerBackend{Server: d.srv}
	}
}

// getJSON fetches one of the daemon's read-only endpoints.
func (d *daemon) getJSON(path string, out any) error {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getMetrics parses the plain "name value" lines of /metrics.
func (d *daemon) getMetrics() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// timedBackend is the benchmark's client: it times every submit and
// release as the caller sees them and, on the traced pass, records a
// span around each.
type timedBackend struct {
	inner      stream.Backend
	rec        *recorder
	parent     int
	submitName string
	submits    []time.Duration
	releases   []time.Duration
	outcomes   []stream.Outcome
}

func newTimedBackend(inner stream.Backend, rec *recorder, parent int, submitName string, arrivals int) *timedBackend {
	return &timedBackend{
		inner: inner, rec: rec, parent: parent, submitName: submitName,
		submits:  make([]time.Duration, 0, arrivals),
		releases: make([]time.Duration, 0, arrivals),
		outcomes: make([]stream.Outcome, 0, arrivals),
	}
}

func (b *timedBackend) Submit(ctx context.Context, a stream.Arrival) (stream.Outcome, error) {
	sp := b.rec.begin(b.submitName, b.parent, a.Seq)
	t := time.Now()
	out, err := b.inner.Submit(ctx, a)
	b.submits = append(b.submits, time.Since(t))
	b.rec.end(sp)
	b.outcomes = append(b.outcomes, out)
	return out, err
}

func (b *timedBackend) Release(ctx context.Context, jobID string) error {
	sp := b.rec.begin("client.release", b.parent, -1)
	t := time.Now()
	err := b.inner.Release(ctx, jobID)
	b.releases = append(b.releases, time.Since(t))
	b.rec.end(sp)
	return err
}

// drive is one timed section: the trace driven to completion.
type drive struct {
	wall      time.Duration
	submitUs  []float64 // per arrival, in arrival order
	releaseUs []float64
	outcomes  []stream.Outcome
	report    *stream.Report
	writtenKB float64 // process-wide wchar delta over the drive
	allocKB   float64 // heap bytes allocated, process-wide, over the drive
}

func (d *drive) p50Ms() float64 { return median(d.submitUs) / 1e3 }

func (d *drive) allocKBPerOp() float64 { return d.allocKB / float64(len(d.submitUs)) }

// driveTrace runs the closed loop. mixSlots mirrors the daemon's MaxMix
// (0 for the fleet, which rejects instead of blocking).
func driveTrace(ctx context.Context, inner stream.Backend, tr *stream.Trace, mixSlots int, rec *recorder, submitName string) (*drive, error) {
	root := rec.begin("stream.driver_run", -1, -1)
	tb := newTimedBackend(inner, rec, root, submitName, len(tr.Events))
	before, haveIO := writtenBytes()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	rep, err := (&stream.Driver{Backend: tb, MixSlots: mixSlots}).Run(ctx, tr)
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	d := &drive{wall: wall, submitUs: durationsUs(tb.submits), releaseUs: durationsUs(tb.releases), outcomes: tb.outcomes, report: rep, allocKB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024}
	if after, ok := writtenBytes(); ok && haveIO {
		d.writtenKB = float64(after-before) / 1024
	}
	return d, nil
}

// generateN expands spec for long enough to hold n arrivals, cuts it
// to exactly n, and deals the tenants out again in exact weight
// proportion, in seeded order. The arrival times are the process's own;
// the cut makes journal length a constant of the workload; the deal
// keeps the share of cheap and expensive requests equal across seeds
// (sampled by weight, 250 arrivals hold anything from 60 to 90 of a 30%
// tenant, and op cost follows the tenant).
func generateN(spec stream.GenSpec, n int) (*stream.Trace, error) {
	for factor := 2.0; ; factor *= 2 {
		spec.DurationMs = int64(factor * 1000 * float64(n) / spec.RatePerSec)
		tr, err := stream.Generate(spec)
		if err != nil {
			return nil, err
		}
		if len(tr.Events) >= n {
			tr.Events = tr.Events[:n]
			deal(tr, rng.New(spec.Seed).Fork(streamDeal))
			return tr, nil
		}
	}
}

// rng stream ids of the serving workloads.
const (
	streamDeal   = 21
	streamJitter = 22
)

// deal assigns the trace's arrivals to its tenants: each tenant gets its
// weight's share of the arrivals (what rounding leaves over goes round
// the tenants in order), in seeded order.
func deal(tr *stream.Trace, src *rng.Source) {
	tenants := tr.Spec.Tenants
	var total float64
	for _, t := range tenants {
		total += t.Weight
	}
	n := len(tr.Events)
	counts := make([]int, len(tenants))
	given := 0
	for i, t := range tenants {
		counts[i] = int(float64(n) * t.Weight / total)
		given += counts[i]
	}
	for i := 0; given < n; i, given = (i+1)%len(tenants), given+1 {
		counts[i]++
	}
	var order []int
	for i, c := range counts {
		for ; c > 0; c-- {
			order = append(order, i)
		}
	}
	order = shuffled(src, order)
	for i := range tr.Events {
		t := tenants[order[i]]
		ev := &tr.Events[i]
		ev.Tenant, ev.Workload, ev.Goal, ev.HoldUs, ev.GPUFraction = t.Name, t.Workload, t.Goal, t.HoldMs*1000, t.GPUFraction
	}
}

// residentTrace is the two jobs every /v1 daemon admits during set-up
// and never releases: the mix's batch tenant (sgemm at 70% of isolated
// IPC) and its best-effort background tenant (lbm). Every candidate is
// then decided against the same two residents — "does it fit in the
// last slot of a busy device?" — so every what-if co-run has three
// kernels and every decision record the same shape, whatever the seed.
// With the mix left to evolve freely, admit rate ranged 0.34-0.51 over
// seeds, co-runs had one to three kernels, and op cost followed.
func residentTrace() *stream.Trace {
	all := stream.DefaultTenants()
	residents := []stream.TenantSpec{all[2], all[3]}
	tr := &stream.Trace{Spec: stream.GenSpec{Process: stream.ProcessPoisson, RatePerSec: ratePerSec, DurationMs: 1000, Tenants: residents}}
	for i, t := range residents {
		tr.Events = append(tr.Events, stream.Arrival{Seq: i, Tenant: t.Name + "-resident", Workload: t.Workload, Goal: t.Goal})
	}
	return tr
}

// candidateSlots is the driver's own share of the mix: one slot, next
// to the two residents. The driver releases its admitted candidate
// before the next submit, so the decision loop never waits for a slot.
const candidateSlots = serveMixSize - 2

// warmTrace is admit-warm's candidates: the seed's Poisson stream over
// the built-in tenant mix.
func warmTrace(seed uint64) (*stream.Trace, error) {
	return generateN(stream.GenSpec{Process: stream.ProcessPoisson, RatePerSec: ratePerSec, Seed: seed, Tenants: stream.DefaultTenants()}, warmArrivals)
}

// coldTrace is admit-cold's candidates: the same stream with every
// arrival's goal replaced by a fractional goal jittered from the seed.
// No two arrivals share a goal, so no two hypothetical mixes share a
// signature and every decision falls through to the simulation tier.
func coldTrace(seed uint64) (*stream.Trace, error) {
	tr, err := generateN(stream.GenSpec{Process: stream.ProcessPoisson, RatePerSec: ratePerSec, Seed: seed, Tenants: stream.DefaultTenants()}, coldArrivals)
	if err != nil {
		return nil, err
	}
	jitter := rng.New(seed).Fork(streamJitter)
	for i := range tr.Events {
		tr.Events[i].Goal = schema.FracGoal(0.3 + 0.6*jitter.Float64())
	}
	return tr, nil
}

// baselineTrace is one best-effort arrival per tenant workload, alone on
// the device. Driving it makes the daemon measure the isolated-IPC
// baselines every later goal resolves against.
func baselineTrace() *stream.Trace {
	ts := stream.DefaultTenants()
	tr := &stream.Trace{Spec: stream.GenSpec{Process: stream.ProcessPoisson, RatePerSec: ratePerSec, DurationMs: 1000, Tenants: ts}}
	for i, t := range ts {
		tr.Events = append(tr.Events, stream.Arrival{Seq: i, TUs: int64(i) * 1000, Tenant: t.Name, Workload: t.Workload, HoldUs: 500})
	}
	return tr
}

// phase is one drive of a set-up: a trace and the mix slots the driver
// may fill with it.
type phase struct {
	tr    *stream.Trace
	slots int
}

// v1Workload is what differs between admit-warm and admit-cold.
type v1Workload struct {
	name string
	// setup is driven once, untimed, on each fresh daemon; trace is the
	// timed traffic.
	setup []phase
	trace *stream.Trace
	// repeatSeconds is the nominal length of one repeat (set-up + drive).
	repeatSeconds float64
	// secondRound makes the traced pass drive its HTTP variants twice.
	secondRound bool
}

// served is how many arrivals one daemon decides.
func (w v1Workload) served() int {
	n := len(w.trace.Events)
	for _, p := range w.setup {
		n += len(p.tr.Events)
	}
	return n
}

func admitWarm(seed uint64) (v1Workload, error) {
	tr, err := warmTrace(seed)
	if err != nil {
		return v1Workload{}, err
	}
	// The cache is warmed by the candidates' own tenants, one arrival
	// each: against the two residents a tenant is a signature, so every
	// signature the timed drive needs is cached and a run has zero misses
	// whatever the seed (a different-seed warm-up left 0-5 misses of
	// ~60 ms each, which moved work_per_s by 10%). Warming with the whole
	// trace bought nothing more and made a repeat twice as long: repeats
	// are what the estimators need (see repeats).
	return v1Workload{name: "admit-warm", trace: tr, repeatSeconds: 1, secondRound: true,
		setup: []phase{{residentTrace(), serveMixSize}, {onePerTenant(tr), candidateSlots}}}, nil
}

// onePerTenant is the first arrival of each tenant of tr, in trace
// order.
func onePerTenant(tr *stream.Trace) *stream.Trace {
	out := &stream.Trace{Spec: tr.Spec}
	seen := make(map[string]bool)
	for _, ev := range tr.Events {
		if seen[ev.Tenant] {
			continue
		}
		seen[ev.Tenant] = true
		ev.Seq = len(out.Events)
		out.Events = append(out.Events, ev)
	}
	return out
}

func admitCold(seed uint64) (v1Workload, error) {
	tr, err := coldTrace(seed)
	return v1Workload{name: "admit-cold", trace: tr, repeatSeconds: 3,
		setup: []phase{{baselineTrace(), serveMixSize}, {residentTrace(), serveMixSize}}}, err
}

func runAdmitWarm(e *env) (*result, error) {
	w, err := admitWarm(e.seed)
	if err != nil {
		return nil, err
	}
	return runV1(e, w)
}

func runAdmitCold(e *env) (*result, error) {
	w, err := admitCold(e.seed)
	if err != nil {
		return nil, err
	}
	return runV1(e, w)
}

// v1Repeat is one repeat on a fresh daemon and a fresh journal: set-up
// (start + warm-up, timed), then the timed drive.
type v1Repeat struct {
	d       *daemon
	journal string
	setup   time.Duration
	drive   *drive
	// heapBefore and heapMB are the live heap before the daemon started
	// and after the timed drive with the daemon still alive.
	heapBefore, heapMB float64
	warmCount          int // decision-log entries written by the warm-up
}

func v1Once(ctx context.Context, e *env, w v1Workload, journalPath string, listen bool, rec *recorder, submitName string) (*v1Repeat, error) {
	r := &v1Repeat{journal: journalPath, heapBefore: liveHeapMB()}
	t0 := time.Now()
	d, err := startV1(journalPath, listen)
	if err != nil {
		return nil, err
	}
	r.d = d
	for _, p := range w.setup {
		if _, err := driveTrace(ctx, d.backend(false), p.tr, p.slots, nil, "client.submit"); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up drive: %w", err)
		}
	}
	r.setup = time.Since(t0)
	r.warmCount = len(d.srv.Decisions())
	if r.drive, err = driveTrace(ctx, d.backend(false), w.trace, candidateSlots, rec, submitName); err != nil {
		d.stop()
		return nil, err
	}
	r.heapMB = liveHeapMB()
	return r, nil
}

// v1Stopped is v1Once for a caller that needs only the drive: the daemon
// is stopped before it returns.
func v1Stopped(ctx context.Context, e *env, w v1Workload, journalPath string, listen bool, rec *recorder, submitName string) (*v1Repeat, error) {
	r, err := v1Once(ctx, e, w, journalPath, listen, rec, submitName)
	if err != nil {
		return nil, err
	}
	return r, r.d.stop()
}

func runV1(e *env, w v1Workload) (*result, error) {
	ctx := context.Background()
	if e.trace {
		return traceV1(ctx, e, w)
	}
	res := newResult()
	var reps repeats
	var last *v1Repeat
	for i, k := 0, e.units(w.repeatSeconds); i < k; i++ {
		if last != nil {
			if err := last.d.stop(); err != nil {
				return nil, err
			}
		}
		r, err := v1Once(ctx, e, w, filepath.Join(e.journalDir, fmt.Sprintf("v1-%d.jnl", i)), true, nil, "client.submit")
		if err != nil {
			return nil, err
		}
		last = r
		reps.add(r.drive, r.heapMB, r.setup.Seconds())
		countOutcomes(res, r.drive)
	}
	decisions := last.d.srv.Decisions()
	mix := last.d.srv.Mix()
	if err := last.d.stop(); err != nil {
		return nil, err
	}
	e.logf("%s: %d repeats of %d arrivals, op p50 spread across repeats %.1f%%, admit rate %.3f", w.name, len(reps.drives), len(w.trace.Events), reps.report(res), last.drive.report.Totals.AdmitRate)

	if _, err := verifyV1(ctx, e, res, decisions, mix, last.journal); err != nil {
		return nil, err
	}
	return res, nil
}

// repeats accumulates a serving run's repeats and reduces them to the
// end-to-end metrics.
//
// Every repeat drives the same trace through a fresh daemon, so arrival
// i costs the same in each of them but for noise — and noise on a shared
// box is one-sided and bursty (measured beside a flat reference loop: a
// fixed co-run's median over 10 s windows swung 80-111 ms, its minimum
// 75-87 ms). Each operation therefore counts with its fastest time
// across repeats; op_p50_ms is the nearest-rank median of those over the
// arrivals, work_per_s the arrivals over their sum (releases included).
// A median across repeats follows the noise of the moment (quartiles
// over ten runs 19-40% apart here); the fastest times follow the code.
// setup_s is the fastest set-up for the same reason. The two counts are
// medians. How much noise this stands depends on the number of repeats:
// beside a writer fsyncing in 1.5 s bursts, 5 repeats read op_p50_ms
// 17-39% high, 10 or more within 4% — so repeats are kept near a second.
type repeats struct {
	drives        []*drive
	heaps, setups []float64
}

func (r *repeats) add(d *drive, heapMB float64, setups ...float64) {
	r.drives = append(r.drives, d)
	r.heaps = append(r.heaps, heapMB)
	r.setups = append(r.setups, setups...)
}

// elementwiseMin returns, per position, the smallest value across rows;
// ok is false when the rows differ in length.
func elementwiseMin(rows [][]float64) (out []float64, ok bool) {
	out = append([]float64(nil), rows[0]...)
	for _, row := range rows[1:] {
		if len(row) != len(out) {
			return nil, false
		}
		for i, v := range row {
			if v < out[i] {
				out[i] = v
			}
		}
	}
	return out, true
}

// report sets the end-to-end metrics and returns the spread of the
// repeats' own p50s, for the progress line.
func (r *repeats) report(res *result) (repeatSpreadPct float64) {
	var submits, releases [][]float64
	var allocs, p50s []float64
	for _, d := range r.drives {
		submits, releases = append(submits, d.submitUs), append(releases, d.releaseUs)
		allocs = append(allocs, d.allocKBPerOp())
		p50s = append(p50s, d.p50Ms())
	}
	submit, ok1 := elementwiseMin(submits)
	release, ok2 := elementwiseMin(releases)
	if !ok1 || !ok2 {
		res.fail("repeats of one trace differ in their number of submits or releases: decisions are not a function of the trace")
		submit, release = r.drives[0].submitUs, r.drives[0].releaseUs
	}
	n := len(submit)
	res.set("work_per_s", float64(n)/((sum(submit)+sum(release))/1e6), len(r.drives))
	res.set("op_p50_ms", median(submit)/1e3, len(r.drives)*n)
	res.set("alloc_kb_per_op", median(allocs), len(allocs))
	res.set("live_heap_mb", median(r.heaps), len(r.heaps))
	res.set("setup_s", sortedCopy(r.setups)[0], len(r.setups))
	return spreadPct(p50s)
}

// countOutcomes feeds attempted/failed: an operation that failed,
// errored or was throttled counts; a legitimate reject does not.
func countOutcomes(res *result, d *drive) {
	res.attempted += len(d.submitUs) + len(d.releaseUs)
	t := d.report.Totals
	for i := 0; i < t.Throttled+t.Failed; i++ {
		res.fail("arrival throttled or failed (throttled %d, failed %d)", t.Throttled, t.Failed)
	}
}

// verifyV1 checks the run's outputs outside the timed sections. The
// decision log replayed through server.NewReplayer on a fresh session
// must reproduce every verdict byte for byte, tier included; and the
// daemon restarted on the journal it just wrote (five times) must
// recover the same mix and decision count. It returns the replay
// latencies (µs per decision) and feeds server.recover_ms.
func verifyV1(ctx context.Context, e *env, res *result, decisions []server.Decision, mix []string, journalPath string) ([]float64, error) {
	if e.inject == "flip-verdict" {
		for i := range decisions {
			if v := decisions[i].Verdict; v != nil {
				decisions[i].Verdict = flipped(v)
				break
			}
		}
	}
	sess, err := core.NewSession(core.WithWindow(serveWindow))
	if err != nil {
		return nil, err
	}
	rp, err := server.NewReplayer(sess, v1Config(nil, ""))
	if err != nil {
		return nil, err
	}
	var replayUs []float64
	for _, d := range decisions {
		if d.Kind != "decision" || d.Verdict == nil {
			continue
		}
		sp := e.rec.begin("verdict.replay", -1, d.Index)
		t := time.Now()
		v, err := rp.Replay(ctx, d)
		replayUs = append(replayUs, float64(time.Since(t).Nanoseconds())/1e3)
		e.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay decision %d: %w", d.Index, err)
		}
		res.attempted++
		got, _ := json.Marshal(v)
		want, _ := json.Marshal(d.Verdict)
		if !bytes.Equal(got, want) {
			res.fail("decision %d (%s): replayed verdict differs from the logged one", d.Index, d.JobID)
		}
	}

	if e.inject == "corrupt-journal" {
		if err := corruptMiddleLine(journalPath); err != nil {
			return nil, err
		}
	}
	var recoverMs []float64
	for i := 0; i < restarts; i++ {
		runner, err := newRunner()
		if err != nil {
			return nil, err
		}
		sp := e.rec.begin("server.recover", -1, i)
		t := time.Now()
		srv, err := server.New(v1Config(runner, journalPath))
		recoverMs = append(recoverMs, time.Since(t).Seconds()*1e3)
		e.rec.end(sp)
		res.attempted++
		if err != nil {
			res.fail("restart %d on %s: %v", i, journalPath, err)
			continue
		}
		if got := len(srv.Decisions()); got != len(decisions) {
			res.fail("restart %d recovered %d decisions, the run logged %d", i, got, len(decisions))
		}
		if got := srv.Mix(); strings.Join(got, ",") != strings.Join(mix, ",") {
			res.fail("restart %d recovered mix %v, the run ended with %v", i, got, mix)
		}
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = srv.Shutdown(sctx)
		cancel()
		if err != nil {
			return nil, err
		}
	}
	res.set("server.recover_ms", median(recoverMs), len(recoverMs))
	return replayUs, nil
}

// flipped returns a copy of the verdict deciding the opposite way.
func flipped(v *schema.Verdict) *schema.Verdict {
	f := *v
	f.Decision = schema.Decision(!v.IsAdmitted())
	return &f
}

// corruptMiddleLine flips one payload byte of the journal's middle
// line, as bit rot would.
func corruptMiddleLine(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := bytes.Split(b, []byte("\n"))
	mid := lines[len(lines)/2]
	i := bytes.Index(mid, []byte(`"job_id":"`))
	if i < 0 {
		return fmt.Errorf("corrupt-journal: no job_id in the middle line of %s", path)
	}
	mid[i+len(`"job_id":"`)] ^= 1
	return os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644)
}

// traceV1 is the traced pass of a /v1 workload. Five drives of the same
// trace, each on a fresh daemon, separate the layers from outside:
//
//	A  HTTP, journal on, no spans      the reference op latency
//	B  HTTP, journal on, spans         trace overhead; counters; the decision log
//	C  in-process Server.Drive, journal on    HTTP share = B - C
//	D  in-process Server.Drive, journal off   journal share = C - D
//	E  Replayer over B's decision log  tier logic alone = verdict share
//
// plus direct probes of journal.Append/Open, the signature hash, the
// cache and the stream driver on the run's own inputs.
func traceV1(ctx context.Context, e *env, w v1Workload) (*result, error) {
	res := newResult()
	jp := func(name string) string { return filepath.Join(e.journalDir, name) }

	a, err := v1Stopped(ctx, e, w, jp("a.jnl"), true, nil, "client.submit")
	if err != nil {
		return nil, err
	}
	b, err := v1Once(ctx, e, w, jp("b.jnl"), true, e.rec, "client.submit")
	if err != nil {
		return nil, err
	}
	var stats struct {
		Tiers map[string]struct {
			Decisions int64 `json:"decisions"`
		} `json:"tiers"`
		CacheMisses int64 `json:"cache_misses"`
		CacheSize   int   `json:"cache_size"`
		Coalesced   int64 `json:"coalesced"`
	}
	if err := b.d.getJSON("/v1/verdicts/stats", &stats); err != nil {
		return nil, err
	}
	exported, err := b.d.getMetrics()
	if err != nil {
		return nil, err
	}
	decisions, mix := b.d.srv.Decisions(), b.d.srv.Mix()
	if err := b.d.stop(); err != nil {
		return nil, err
	}
	c, err := v1Stopped(ctx, e, w, jp("c.jnl"), false, e.rec, "server.drive")
	if err != nil {
		return nil, err
	}
	d, err := v1Stopped(ctx, e, w, "", false, e.rec, "server.drive_nojournal")
	if err != nil {
		return nil, err
	}
	plain, spanned := []*drive{a.drive}, []*drive{b.drive}
	if w.secondRound {
		a2, err := v1Stopped(ctx, e, w, jp("a2.jnl"), true, nil, "client.submit")
		if err != nil {
			return nil, err
		}
		b2, err := v1Stopped(ctx, e, w, jp("b2.jnl"), true, newRecorder(), "client.submit")
		if err != nil {
			return nil, err
		}
		plain, spanned = append(plain, a2.drive), append(spanned, b2.drive)
	}
	for _, other := range append(append([]*drive{c.drive, d.drive}, plain...), spanned...) {
		if got, want := other.report.Totals.AdmitRate, b.drive.report.Totals.AdmitRate; got != want {
			res.fail("admit rate %v on one drive, %v on another: decisions are not a function of the trace", got, want)
		}
	}

	replayUs, err := verifyV1(ctx, e, res, decisions, mix, b.journal)
	if err != nil {
		return nil, err
	}
	// Only the timed section's decisions count for the tier-logic share.
	timedReplay := replayUs[countDecisions(decisions[:b.warmCount]):]

	best := reportClient(res, plain, spanned)
	n, cp50 := float64(len(best.submitUs)), median(best.submitUs)

	drive, nojournal, replay := median(c.drive.submitUs), median(d.drive.submitUs), median(timedReplay)
	res.set("server.drive_p50_us", drive, len(c.drive.submitUs))
	res.set("server.nojournal_drive_p50_us", nojournal, len(d.drive.submitUs))
	res.set("server.http_overhead_us", cp50-drive, len(best.submitUs))
	res.set("server.queue_store_us", nojournal-replay, len(timedReplay))
	res.set("server.journal_share", (drive-nojournal)/cp50, len(best.submitUs))
	res.set("verdict.replay_p50_us", replay, len(timedReplay))
	res.set("verdict.cache_len", float64(stats.CacheSize), 1)

	var decided float64
	for _, t := range stats.Tiers {
		decided += float64(t.Decisions)
	}
	if decided > 0 {
		res.set("server.tier_cache_share", float64(stats.Tiers[schema.TierCache].Decisions)/decided, int(decided))
		res.set("server.tier_model_share", float64(stats.Tiers[schema.TierModel].Decisions)/decided, int(decided))
		res.set("server.tier_sim_share", float64(stats.Tiers[schema.TierSim].Decisions)/decided, int(decided))
		res.set("server.sim_cycles_per_decision", exported["qosd_sim_cycles"]/decided, int(decided))
	}
	res.set("server.cache_misses", float64(stats.CacheMisses), 1)
	res.set("server.coalesced", float64(stats.Coalesced), 1)
	res.set("server.retained_kb_per_decision", 1024*(b.heapMB-b.heapBefore)/float64(w.served()), w.served())
	res.set("journal.write_kb_per_decision", best.writtenKB/n, len(best.submitUs))

	jr, err := probeJournal(e, []journalFile{{path: b.journal, stage: "jobs", warm: b.warmCount}})
	if err != nil {
		return nil, err
	}
	jr.report(res)
	// Named layers, each measured on its own: HTTP (A - C), queue and
	// job store (D - E), tier logic (E), journal (the append probe). What
	// they leave of the client's p50 is unattributed.
	res.set("client.attributed_share", ((cp50-drive)+(nojournal-replay)+replay+jr.p50)/cp50, len(best.submitUs))

	sigNs, getNs := probeVerdict(decisions)
	res.set("verdict.signature_ns", sigNs, len(decisions))
	res.set("verdict.cache_get_ns", getNs, len(decisions))

	if err := probeStream(ctx, e, res, w.trace, b.drive); err != nil {
		return nil, err
	}

	changed, err := v1DigestChanged(ctx, e, w, decisions[b.warmCount:])
	if err != nil {
		return nil, err
	}
	res.set("core.stats_digest_changed", changed, 1)
	return res, nil
}

// reportClient sets the client.* metrics of a traced pass from its plain
// HTTP drives and its spanned ones, and returns the plain drive they
// describe. Two starts of one daemon differ by +-6% in op p50 on this
// box, more than the span overhead being measured, so where the journal
// dominates each variant is driven twice and counts with its faster
// drive.
func reportClient(res *result, plain, spanned []*drive) *drive {
	fastest := func(ds []*drive) *drive {
		best := ds[0]
		for _, d := range ds[1:] {
			if d.p50Ms() < best.p50Ms() {
				best = d
			}
		}
		return best
	}
	var p50s []float64
	for _, d := range plain {
		p50s = append(p50s, d.p50Ms())
	}
	for _, ds := range [][]*drive{plain, spanned} {
		for _, d := range ds {
			countOutcomes(res, d)
		}
	}
	best := fastest(plain)
	us := sortedCopy(best.submitUs)
	res.set("client.submit_p50_us", percentile(us, 0.5), len(us))
	res.set("client.submit_p90_us", percentile(us, 0.9), len(us))
	res.set("client.submit_p99_us", percentile(us, 0.99), len(us))
	res.set("client.release_p50_us", median(best.releaseUs), len(best.releaseUs))
	res.set("client.ops", float64(len(us)+len(best.releaseUs)), 1)
	res.set("client.throttled", float64(best.report.Totals.Throttled), 1)
	res.set("client.drift_x", quartileDrift(best.submitUs), len(us)/4)
	res.set("client.repeat_spread_pct", spreadPct(p50s), len(p50s))
	res.set("client.trace_overhead_pct", 100*(fastest(spanned).p50Ms()/best.p50Ms()-1), len(us))
	return best
}

func countDecisions(ds []server.Decision) int {
	n := 0
	for _, d := range ds {
		if d.Kind == "decision" && d.Verdict != nil {
			n++
		}
	}
	return n
}

// journalFile names one journal the run wrote: where it is, the stage
// its records live under, and how many of them the warm-up wrote.
type journalFile struct {
	path  string
	stage string
	warm  int
}

// journalProbe is the write and read side of internal/journal measured
// alone: every record the run wrote re-appended, in order, to a fresh
// journal.Create (so the probe journal grows exactly as the run's did),
// and journal.Open on the files themselves.
type journalProbe struct {
	p50, firstQ, lastQ float64 // µs per append over the timed section's records
	n                  int
	openMs             float64 // all files, median of five rounds
	records            int
	fileKB             float64
}

func probeJournal(e *env, files []journalFile) (*journalProbe, error) {
	p := &journalProbe{}
	var us, firstQ, lastQ []float64
	opens := make([]float64, restarts)
	for fi, f := range files {
		hash, err := headerHash(f.path)
		if err != nil {
			return nil, err
		}
		var written *journal.Journal
		for i := 0; i < restarts; i++ {
			sp := e.rec.begin("journal.open", -1, fi)
			t := time.Now()
			written, err = journal.Open(f.path, hash)
			opens[i] += time.Since(t).Seconds() * 1e3
			e.rec.end(sp)
			if err != nil {
				return nil, err
			}
		}
		st, err := os.Stat(f.path)
		if err != nil {
			return nil, err
		}
		p.fileKB += float64(st.Size()) / 1024
		records := written.Completed(f.stage)
		p.records += len(records)

		fresh, err := journal.Create(filepath.Join(e.journalDir, fmt.Sprintf("probe-%d.jnl", fi)), "probe")
		if err != nil {
			return nil, err
		}
		var fileUs []float64
		for idx := 0; idx < len(records); idx++ {
			payload, ok := records[idx]
			if !ok {
				return nil, fmt.Errorf("%s: record %d missing (indices are not dense)", f.path, idx)
			}
			sp := e.rec.begin("journal.append", -1, idx)
			t := time.Now()
			err := fresh.Append(f.stage, idx, payload)
			dt := float64(time.Since(t).Nanoseconds()) / 1e3
			e.rec.end(sp)
			if err != nil {
				return nil, err
			}
			if idx >= f.warm {
				fileUs = append(fileUs, dt)
			}
		}
		if err := fresh.Close(); err != nil {
			return nil, err
		}
		// Quartiles are taken per file: each file grows on its own.
		q := len(fileUs) / 4
		us, firstQ, lastQ = append(us, fileUs...), append(firstQ, fileUs[:q]...), append(lastQ, fileUs[len(fileUs)-q:]...)
	}
	p.n, p.p50, p.openMs = len(us), median(us), median(opens)
	p.firstQ, p.lastQ = median(firstQ), median(lastQ)
	return p, nil
}

func (p *journalProbe) report(res *result) {
	res.set("journal.append_p50_us", p.p50, p.n)
	res.set("journal.append_first_q_us", p.firstQ, p.n/4)
	res.set("journal.append_last_q_us", p.lastQ, p.n/4)
	res.set("journal.open_ms", p.openMs, restarts)
	res.set("journal.records", float64(p.records), 1)
	res.set("journal.file_kb", p.fileKB, 1)
}

// headerHash reads the config hash a journal was created under, so the
// probe can Open it the way its owner would.
func headerHash(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	first, _, _ := bytes.Cut(b, []byte("\n"))
	rec, err := journal.Decode(first)
	if err != nil {
		return "", err
	}
	return rec.Config, nil
}

// probeVerdict times the signature hash (KernelSigsOf + Signature) and a
// cache hit over the run's own hypothetical mixes.
func probeVerdict(decisions []server.Decision) (sigNs, getNs float64) {
	var mixes [][]core.KernelSpec
	for _, d := range decisions {
		if d.Kind != "decision" {
			continue
		}
		specs := make([]core.KernelSpec, 0, len(d.Mix)+1)
		for _, m := range d.Mix {
			specs = append(specs, m.Spec())
		}
		mixes = append(mixes, append(specs, d.Candidate.Spec()))
	}
	if len(mixes) == 0 {
		return 0, 0
	}
	const rounds = 20
	sigs := make([]string, len(mixes))
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for i, specs := range mixes {
			sigs[i] = verdict.Signature(verdict.KernelSigsOf(specs), "rollover", "benchmark-probe")
		}
	}
	sigNs = float64(time.Since(t).Nanoseconds()) / float64(rounds*len(mixes))
	cache := verdict.NewCache(verdict.DefaultCacheSize)
	for _, s := range sigs {
		cache.Put(s, verdict.Cached{})
	}
	hits := 0
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range sigs {
			if _, ok := cache.Get(s); ok {
				hits++
			}
		}
	}
	getNs = float64(time.Since(t).Nanoseconds()) / float64(hits)
	return sigNs, getNs
}

// cannedBackend answers from a recorded drive: the stream driver's own
// cost with no system behind it.
type cannedBackend struct{ outcomes []stream.Outcome }

func (c cannedBackend) Submit(_ context.Context, a stream.Arrival) (stream.Outcome, error) {
	return c.outcomes[a.Seq], nil
}
func (cannedBackend) Release(context.Context, string) error { return nil }

// probeStream times trace generation and the driver's per-arrival
// overhead, and reports the traffic's own counts.
func probeStream(ctx context.Context, e *env, res *result, tr *stream.Trace, d *drive) error {
	spec := tr.Spec
	sp := e.rec.begin("stream.generate", -1, -1)
	t := time.Now()
	if _, err := stream.Generate(spec); err != nil {
		return err
	}
	res.set("stream.generate_ms", time.Since(t).Seconds()*1e3, 1)
	e.rec.end(sp)

	const rounds = 5
	var perArrival []float64
	for r := 0; r < rounds; r++ {
		t := time.Now()
		if _, err := (&stream.Driver{Backend: cannedBackend{d.outcomes}, MixSlots: 0}).Run(ctx, tr); err != nil {
			return err
		}
		perArrival = append(perArrival, float64(time.Since(t).Nanoseconds())/1e3/float64(len(tr.Events)))
	}
	res.set("stream.driver_overhead_us", median(perArrival), rounds)
	res.set("stream.arrivals", float64(len(tr.Events)), 1)
	res.set("stream.admit_rate", d.report.Totals.AdmitRate, d.report.Totals.Admitted+d.report.Totals.Rejected)
	return nil
}

// v1DigestChanged fingerprints the verdicts of the reference-seed
// traffic (1 = differs from golden/<workload>.digest). The run's own
// timed decisions serve when it ran the reference seed; otherwise the
// reference trace is driven in-process on a journal-less daemon.
func v1DigestChanged(ctx context.Context, e *env, w v1Workload, timed []server.Decision) (float64, error) {
	if e.seed != defaultSeed {
		ref, err := admitWarm(defaultSeed)
		if w.name == "admit-cold" {
			ref, err = admitCold(defaultSeed)
		}
		if err != nil {
			return 0, err
		}
		r, err := v1Once(ctx, e, ref, "", false, nil, "server.drive")
		if err != nil {
			return 0, err
		}
		timed = r.d.srv.Decisions()[r.warmCount:]
		if err := r.d.stop(); err != nil {
			return 0, err
		}
	}
	return compareGolden(e, w.name, verdictDigest(timed))
}

// verdictDigest hashes what was decided — admit or reject and every
// kernel's simulated outcome — leaving out what names the decision (job
// ids) and which tier served it.
func verdictDigest(ds []server.Decision) string {
	h := newDigest()
	for _, d := range ds {
		if d.Kind != "decision" || d.Verdict == nil {
			continue
		}
		h.addVerdict(d.Verdict)
	}
	return h.sum()
}

// addVerdict hashes what a verdict decided — admit or reject and every
// kernel's simulated outcome — without job ids or the serving tier.
func (d *digest) addVerdict(v *schema.Verdict) {
	d.add(v.Decision, v.Cycles)
	for _, o := range append(append([]schema.KernelOutcome(nil), v.Incumbents...), v.Candidate) {
		o.JobID = ""
		d.add(o)
	}
}
