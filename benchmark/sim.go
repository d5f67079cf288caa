package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/rng"
	"repro/internal/trace"
	wl "repro/internal/workloads"
)

// The simulator workloads drive core.Session.Run directly and serially:
// the paper's own product with no serving stack around it. sim-dense is
// issue-bound (every cycle issues; sm/gpu/mem/qos do the work);
// sim-sparse spends most cycles not issuing (quota-gated SMs, a drained
// grid waiting behind the relaunch gate, a latency-bound pointer chase),
// so the same gpu/sm layers run their other half: wheel jumps, the idle
// fast path, wake heaps. A gain bought for one at the other's cost shows
// as a regression on the other.

// Sizes measured on 2 cores: a dense pass (660k cycles) and a sparse pass
// (1.08M cycles) both take ~2.2 s.
const (
	denseWindow  = 30_000
	sparseWindow = 60_000
	passSeconds  = 2.2
)

// rng stream ids forked off the run seed, one per concern.
const (
	streamPairs = 11
	streamTrios = 12
	streamGoals = 13
)

// simCase is one co-run of a plan.
type simCase struct {
	Label  string
	Specs  []core.KernelSpec
	Scheme core.Scheme
}

// simPlan is a workload's generated input: the co-runs of one pass, in
// order, and the window they run for.
type simPlan struct {
	Window int64
	Cases  []simCase
}

// kernels returns the distinct kernel specs of the plan in first-use
// order (what set-up measures isolated IPC for).
func (p simPlan) kernels() []core.KernelSpec {
	seen := make(map[string]bool)
	var out []core.KernelSpec
	for _, c := range p.Cases {
		for _, s := range c.Specs {
			name := s.Workload
			if name == "" {
				name = s.Profile.Name
			}
			if !seen[name] {
				seen[name] = true
				out = append(out, core.KernelSpec{Workload: s.Workload, Profile: s.Profile})
			}
		}
	}
	return out
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](src *rng.Source, xs []T) []T {
	out := append([]T(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// byClass splits the paper suite into its compute- and memory-intensive
// halves (five each), in figure order.
func byClass() (compute, memory []string) {
	for _, p := range wl.Profiles() {
		if p.Class == kern.ClassCompute {
			compute = append(compute, p.Name)
		} else {
			memory = append(memory, p.Name)
		}
	}
	return compute, memory
}

// classCycle is the order of kernel classes around the ten-pair cycle
// (c = compute, m = memory). Neighbours pair up, so every plan holds
// two C+C, two M+M, three C+M and three M+C pairs whatever the seed.
const classCycle = "ccmmcmccmm"

// seededCycle places the suite's kernels on classCycle: the seed decides
// which compute kernel takes which c slot and which memory kernel which
// m slot.
func seededCycle(src *rng.Source) []string {
	compute, memory := byClass()
	compute, memory = shuffled(src, compute), shuffled(src, memory)
	out := make([]string, 0, len(classCycle))
	for _, c := range classCycle {
		if c == 'c' {
			out, compute = append(out, compute[0]), compute[1:]
		} else {
			out, memory = append(out, memory[0]), memory[1:]
		}
	}
	return out
}

// goalIn draws a goal on the paper's 0.05 grid within [lo, hi].
func goalIn(src *rng.Source, lo, hi float64) float64 {
	steps := int((hi-lo)/0.05+0.5) + 1
	return lo + 0.05*float64(src.Intn(steps))
}

// goalsOnCycle deals goals to the ten cycle positions: the c slots get a
// seeded shuffle of forCompute and the m slots one of forMemory (five
// values each). A goal is a fraction of isolated IPC and compute kernels
// run at ten times the IPC of memory kernels, so which class a goal
// lands on decides how much the co-run issues; dealing per class keeps
// that constant across seeds.
func goalsOnCycle(src *rng.Source, forCompute, forMemory []float64) []float64 {
	c, m := shuffled(src, forCompute), shuffled(src, forMemory)
	out := make([]float64, 0, len(classCycle))
	for _, class := range classCycle {
		if class == 'c' {
			out, c = append(out, c[0]), c[1:]
		} else {
			out, m = append(out, m[0]), m[1:]
		}
	}
	return out
}

// seededPairs returns the ten (QoS, non-QoS) neighbours of one seeded
// cycle: every benchmark is the QoS kernel of one pair and the non-QoS
// kernel of another.
func seededPairs(src *rng.Source) []wl.Pair {
	order := seededCycle(src)
	pairs := make([]wl.Pair, len(order))
	for i := range order {
		pairs[i] = wl.Pair{QoS: order[i], NonQoS: order[(i+1)%len(order)]}
	}
	return pairs
}

// densePlan draws twenty pairs and two trios by seed from
// workloads.Pairs()/Trios(). The pairs are two seeded cycles through
// the ten benchmarks, each carrying the paper's ten goals 0.50..0.95
// once, with the four schemes cycling. Seeds change who meets whom,
// under which goal and which scheme, but not how often a slow
// (compute-bound) or fast (memory-bound) kernel is simulated, nor how
// many C+C and M+M pairs there are: host speed differs 4x between those,
// and an unstratified draw of 22 co-runs makes seeds incomparable
// (measured: quartiles 13% apart; stratified: see README).
func densePlan(seed uint64) simPlan {
	src := rng.New(seed)
	goals := src.Fork(streamGoals)
	schemes := []core.Scheme{core.SchemeRollover, core.SchemeElastic, core.SchemeNaiveHistory, core.SchemeSpart}
	known := make(map[wl.Pair]bool)
	for _, p := range wl.Pairs() {
		known[p] = true
	}
	plan := simPlan{Window: denseWindow}
	even, odd := []float64{0.5, 0.6, 0.7, 0.8, 0.9}, []float64{0.55, 0.65, 0.75, 0.85, 0.95}
	for cycle := 0; cycle < 2; cycle++ {
		goalAt := goalsOnCycle(goals, even, odd)
		even, odd = odd, even
		for i, p := range seededPairs(src.Fork(streamPairs + uint64(cycle))) {
			if !known[p] {
				panic("benchmark: pair outside workloads.Pairs(): " + p.QoS + "+" + p.NonQoS)
			}
			sc := schemes[(i+2*cycle+i/4)%len(schemes)]
			plan.Cases = append(plan.Cases, simCase{
				Label:  fmt.Sprintf("%s:%s+%s", sc.Name(), p.QoS, p.NonQoS),
				Specs:  []core.KernelSpec{{Workload: p.QoS, GoalFrac: goalAt[i]}, {Workload: p.NonQoS}},
				Scheme: sc,
			})
		}
	}
	// One 1-QoS trio with two compute kernels and one 2-QoS trio with one
	// (paper Section 4.1), each drawn by seed from its class stratum.
	isCompute := make(map[string]bool)
	compute, _ := byClass()
	for _, n := range compute {
		isCompute[n] = true
	}
	strata := make(map[int][]wl.Trio)
	for _, t := range wl.Trios() {
		n := 0
		for _, name := range []string{t.A, t.B, t.C} {
			if isCompute[name] {
				n++
			}
		}
		strata[n] = append(strata[n], t)
	}
	pick := src.Fork(streamTrios)
	for k, nCompute := range []int{2, 1} {
		t := strata[nCompute][pick.Intn(len(strata[nCompute]))]
		specs := []core.KernelSpec{{Workload: t.A, GoalFrac: goalIn(goals, 0.5, 0.8)}, {Workload: t.B}, {Workload: t.C}}
		if k == 1 {
			specs[1].GoalFrac = goalIn(goals, 0.5, 0.8)
		}
		sc := schemes[k*2] // rollover, naive-history
		plan.Cases = append(plan.Cases, simCase{
			Label:  fmt.Sprintf("%s:%s+%s+%s", sc.Name(), t.A, t.B, t.C),
			Specs:  specs,
			Scheme: sc,
		})
	}
	return plan
}

// sparsePlan draws co-runs that mostly do not issue: ten Naive pairs
// (one seeded cycle) whose two kernels both carry goals <= 0.3, so quota
// runs out early in every epoch and the SMs sit gate-stalled until the
// roll; five rollover-time pairs (every other pair of a second cycle);
// and three fixed microbenchmark runs — the pointer chase alone, a 16-TB
// ALU grid alone (drains, then waits behind the relaunch gate) and the
// two together.
func sparsePlan(seed uint64) simPlan {
	src := rng.New(seed)
	goals := src.Fork(streamGoals)
	plan := simPlan{Window: sparseWindow}
	low := []float64{0.05, 0.1, 0.15, 0.2, 0.3}
	first, second := goalsOnCycle(goals, low, low), goalsOnCycle(goals, low, low)
	for i, p := range seededPairs(src.Fork(streamPairs)) {
		plan.Cases = append(plan.Cases, simCase{
			Label: fmt.Sprintf("naive:%s+%s", p.QoS, p.NonQoS),
			Specs: []core.KernelSpec{
				{Workload: p.QoS, GoalFrac: first[i]},
				{Workload: p.NonQoS, GoalFrac: second[(i+1)%len(second)]},
			},
			Scheme: core.SchemeNaive,
		})
	}
	high := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	goalAt := goalsOnCycle(goals, high, high)
	for i, p := range seededPairs(src.Fork(streamPairs + 1)) {
		if i%2 == 1 {
			continue
		}
		plan.Cases = append(plan.Cases, simCase{
			Label:  fmt.Sprintf("rollover-time:%s+%s", p.QoS, p.NonQoS),
			Specs:  []core.KernelSpec{{Workload: p.QoS, GoalFrac: goalAt[i]}, {Workload: p.NonQoS}},
			Scheme: core.SchemeRolloverTime,
		})
	}
	chase := wl.MicroPChase()
	drain := wl.MicroALU()
	drain.Name, drain.GridTBs = "micro-alu-g16", 16
	plan.Cases = append(plan.Cases,
		simCase{Label: "none:micro-pchase", Specs: []core.KernelSpec{{Profile: &chase}}, Scheme: core.SchemeNone},
		simCase{Label: "none:micro-alu-g16", Specs: []core.KernelSpec{{Profile: &drain}}, Scheme: core.SchemeNone},
		simCase{Label: "none:micro-alu-g16+micro-pchase", Specs: []core.KernelSpec{{Profile: &drain}, {Profile: &chase}}, Scheme: core.SchemeNone},
	)
	return plan
}

func runSimDense(e *env) (*result, error)  { return runSim(e, "sim-dense", densePlan) }
func runSimSparse(e *env) (*result, error) { return runSim(e, "sim-sparse", sparsePlan) }

// simSetup is what a user pays before the first co-run: generate the
// plan, build the session, measure every kernel's isolated IPC (the
// baseline fractional goals resolve against).
func simSetup(ctx context.Context, e *env, planFn func(uint64) simPlan, seed uint64, parent int) (simPlan, *core.Session, time.Duration, error) {
	t0 := time.Now()
	plan := planFn(seed)
	sess, err := core.NewSession(core.WithWindow(plan.Window))
	if err != nil {
		return plan, nil, 0, err
	}
	for i, k := range plan.kernels() {
		sp := e.rec.begin("core.isolated_ipc", parent, i)
		_, err := sess.IsolatedIPC(ctx, k)
		e.rec.end(sp)
		if err != nil {
			return plan, nil, 0, err
		}
	}
	return plan, sess, time.Since(t0), nil
}

// simPass is one serial pass over a plan's co-runs. Per run it keeps
// the host time, the simulated cycles and a digest of the complete
// Result (stats, IPCs, power); the Results themselves and the control
// event counts only on request, so that what stays alive after the
// timed section is the session and not the benchmark's own bookkeeping.
type simPass struct {
	wall    time.Duration
	runs    []time.Duration
	cyc     []int64
	digs    []string
	results []*core.Result
	events  []simEvents
}

// simEvents counts one co-run's control events (RunTraced).
type simEvents struct {
	epochs, quotaGrants, gateStalls, relaunches, dropped int64
}

func (p *simPass) cycles() int64 {
	var c int64
	for _, n := range p.cyc {
		c += n
	}
	return c
}

// eventRing holds one co-run's control events without wrapping at the
// benchmark's windows (checked: dropped must stay 0).
const eventRing = 1 << 18

// runPass runs every co-run of the plan once. detail keeps the Results
// and runs the simulator's own event tracer (the traced pass).
func runPass(ctx context.Context, sess *core.Session, plan simPlan, rec *recorder, keep, simTrace bool) (*simPass, error) {
	p := &simPass{}
	root := rec.begin("bench.pass", -1, -1)
	t0 := time.Now()
	for i, c := range plan.Cases {
		var tr *trace.Tracer
		if simTrace {
			tr = trace.New(eventRing)
		}
		sp := rec.begin("core.session_run", root, i)
		t := time.Now()
		res, err := sess.RunTraced(ctx, c.Specs, c.Scheme, tr)
		d := time.Since(t)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Label, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		p.runs = append(p.runs, d)
		p.cyc = append(p.cyc, res.Cycles)
		p.digs = append(p.digs, hex.EncodeToString(sum[:]))
		if keep {
			p.results = append(p.results, res)
		}
		if simTrace {
			ev := simEvents{epochs: tr.Registry().Counter("epochs").Value(), dropped: tr.Dropped()}
			for _, e := range tr.Events() {
				switch e.Kind {
				case trace.KindQuotaGrant:
					ev.quotaGrants++
				case trace.KindGateStall:
					ev.gateStalls++
				case trace.KindKernelRelaunch:
					ev.relaunches++
				}
			}
			p.events = append(p.events, ev)
		}
	}
	p.wall = time.Since(t0)
	rec.end(root)
	return p, nil
}

func (p *simPass) rate() float64 { return float64(p.cycles()) / p.wall.Seconds() }

// verifySim checks outputs outside the timed section: every pass must
// reproduce the first pass's results bit for bit, every run must cover
// exactly the window, and the first co-run rerun on a fresh session
// (fresh isolated-IPC cache) must match. Returns failed runs.
func verifySim(ctx context.Context, plan simPlan, passes []*simPass, res *result) error {
	ref := passes[0].digs
	for pi, p := range passes {
		for i, d := range p.digs {
			switch {
			case d != ref[i]:
				res.fail("pass %d run %s: result differs from pass 0", pi, plan.Cases[i].Label)
			case p.cyc[i] != plan.Window:
				res.fail("pass %d run %s: simulated %d cycles, window is %d", pi, plan.Cases[i].Label, p.cyc[i], plan.Window)
			}
		}
	}
	fresh, err := core.NewSession(core.WithWindow(plan.Window))
	if err != nil {
		return err
	}
	one := simPlan{Window: plan.Window, Cases: plan.Cases[:1]}
	again, err := runPass(ctx, fresh, one, nil, false, false)
	if err != nil {
		return err
	}
	res.attempted++
	if again.digs[0] != ref[0] {
		res.fail("rerun of %s on a fresh session differs", plan.Cases[0].Label)
	}
	return nil
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func runSim(e *env, name string, planFn func(uint64) simPlan) (*result, error) {
	ctx := context.Background()
	if e.trace {
		return traceSim(ctx, e, name, planFn)
	}
	res := newResult()

	// Set-up three times from scratch; the fastest is setup_s (see the
	// note on noise below) and the last session runs the timed section.
	var setups []float64
	var plan simPlan
	var sess *core.Session
	for i := 0; i < 3; i++ {
		p, s, d, err := simSetup(ctx, e, planFn, e.seed, -1)
		if err != nil {
			return nil, err
		}
		plan, sess = p, s
		setups = append(setups, d.Seconds())
	}

	var passes []*simPass
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := e.units(passSeconds); i > 0; i-- {
		p, err := runPass(ctx, sess, plan, nil, false, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	runtime.ReadMemStats(&after)
	heap := liveHeapMB()
	runtime.KeepAlive(sess)

	// Noise on a shared box is one-sided and bursty (the same co-run
	// measured 150-260 ms from one pass to the next while a reference
	// loop stayed flat): a burst slows whichever co-run it lands on, in
	// one pass and not the next. Each co-run therefore counts with its
	// fastest time across passes; the pass is their sum. Medians follow
	// the noise of the moment (quartiles 16% apart here), the fastest
	// times follow the code (4%).
	passUs := sum(fastest(passes))
	var rates []float64
	for _, p := range passes {
		rates = append(rates, p.rate())
		res.attempted += len(p.runs)
	}
	res.set("work_per_s", float64(passes[0].cycles())/(passUs/1e6), len(passes))
	res.set("op_p50_ms", passUs/1e3, len(passes))
	res.set("alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(passes)), len(passes))
	res.set("live_heap_mb", heap, 1)
	res.set("setup_s", sortedCopy(setups)[0], len(setups))
	e.logf("%s: %d passes of %d co-runs (%d cycles each), pass rates spread %.1f%%", name, len(passes), len(plan.Cases), plan.Window, spreadPct(rates))

	if err := verifySim(ctx, plan, passes, res); err != nil {
		return nil, err
	}
	return res, nil
}

// traceSim is the traced pass: per-layer metrics for a simulator
// workload. Three passes over the same plan — plain, with benchmark
// spans, with the simulator's own event tracer — so the span overhead
// and the RunTraced overhead are both measured against the plain pass.
func traceSim(ctx context.Context, e *env, name string, planFn func(uint64) simPlan) (*result, error) {
	res := newResult()
	root := e.rec.begin("bench.setup", -1, -1)
	plan, sess, setup, err := simSetup(ctx, e, planFn, e.seed, root)
	e.rec.end(root)
	if err != nil {
		return nil, err
	}
	kernels := len(plan.kernels())
	res.set("core.isolated_ipc_ms", setup.Seconds()*1e3/float64(kernels), kernels)

	// Two rounds of the three variants, alternating; each co-run keeps
	// its faster time of the two. One round is at the mercy of whichever
	// pass a noisy neighbour lands on (measured: a whole pass 10% slow).
	const rounds = 2
	var plainPs, spannedPs, tracedPs []*simPass
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		if r == 0 {
			runtime.ReadMemStats(&before)
		}
		p, err := runPass(ctx, sess, plan, nil, true, false)
		if err != nil {
			return nil, err
		}
		if r == 0 {
			runtime.ReadMemStats(&after)
		}
		sp, err := runPass(ctx, sess, plan, e.rec, false, false)
		if err != nil {
			return nil, err
		}
		tp, err := runPass(ctx, sess, plan, nil, false, true)
		if err != nil {
			return nil, err
		}
		plainPs, spannedPs, tracedPs = append(plainPs, p), append(spannedPs, sp), append(tracedPs, tp)
	}
	all := append(append(append([]*simPass(nil), plainPs...), spannedPs...), tracedPs...)
	res.attempted = len(all) * len(plan.Cases)
	if err := verifySim(ctx, plan, all, res); err != nil {
		return nil, err
	}
	plain, traced := plainPs[0], tracedPs[0]
	plainRuns, spannedRuns, tracedRuns := fastest(plainPs), fastest(spannedPs), fastest(tracedPs)
	plainUs, spannedUs, tracedUs := sum(plainRuns), sum(spannedRuns), sum(tracedRuns)

	n := float64(len(plan.Cases))
	us := sortedCopy(plainRuns)
	res.set("client.submit_p50_us", percentile(us, 0.5), len(us))
	res.set("client.submit_p90_us", percentile(us, 0.9), len(us))
	res.set("client.submit_p99_us", percentile(us, 0.99), len(us))
	res.set("client.ops", n, 1)
	res.set("client.drift_x", float64(plainPs[rounds-1].wall)/float64(plainPs[0].wall), 1)
	res.set("client.repeat_spread_pct", spreadPct([]float64{plainPs[0].rate(), plainPs[rounds-1].rate()}), rounds)
	res.set("client.trace_overhead_pct", 100*(spannedUs/plainUs-1), len(us))
	// What the pass span does not spend inside Session.Run is the
	// harness's own time.
	self := e.rec.selfByName()
	res.set("client.attributed_share", 1-median(self["bench.pass"])/(float64(spannedPs[0].wall.Nanoseconds())/1e3), 1)
	res.set("core.traced_run_overhead_pct", 100*(tracedUs/plainUs-1), len(us))
	res.set("core.mallocs_per_run", float64(after.Mallocs-before.Mallocs)/n, len(plan.Cases))
	res.set("core.alloc_kb_per_run", float64(after.TotalAlloc-before.TotalAlloc)/1024/n, len(plan.Cases))

	// Host speed per scheme, and the simulated counters.
	bySchemeCycles := make(map[string]int64)
	bySchemeWall := make(map[string]time.Duration)
	var st simTotals
	for i, r := range plain.results {
		sc := plan.Cases[i].Scheme.Name()
		bySchemeCycles[sc] += r.Cycles
		bySchemeWall[sc] += time.Duration(plainRuns[i] * 1e3)
		st.add(r, sess)
	}
	for sc, cyc := range bySchemeCycles {
		res.set("core.run_cycles_per_s."+sc, float64(cyc)/bySchemeWall[sc].Seconds(), 1)
	}
	for _, ev := range traced.events {
		if ev.dropped > 0 {
			res.fail("event ring wrapped (%d dropped): qos.* counts are low", ev.dropped)
		}
		st.epochs += ev.epochs
		st.quotaGrants += ev.quotaGrants
		st.gateStalls += ev.gateStalls
		st.relaunches += ev.relaunches
	}
	st.report(res, time.Duration(plainUs*1e3))

	changed, err := digestChanged(ctx, e, name, planFn, plain)
	if err != nil {
		return nil, err
	}
	res.set("core.stats_digest_changed", changed, 1)
	return res, nil
}

// fastest returns, per co-run, its shortest time (µs) across passes.
func fastest(passes []*simPass) []float64 {
	out := durationsUs(passes[0].runs)
	for _, p := range passes[1:] {
		for i, d := range durationsUs(p.runs) {
			if d < out[i] {
				out[i] = d
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// simTotals sums the simulated counters of one pass.
type simTotals struct {
	cycles, warpInstrs, threadInstrs, throttled, slots int64
	tbsDispatched, tbsPreempted                        int64
	memTxns, l1Acc, l1Miss                             int64
	qosKernels, reached                                int64
	ratioSum                                           float64
	epochs, quotaGrants, gateStalls, relaunches        int64
}

func (t *simTotals) add(r *core.Result, sess *core.Session) {
	g := sess.GPUConfig()
	t.cycles += r.Cycles
	t.slots += r.Cycles * int64(g.NumSMs) * int64(g.WarpSchedulers)
	for _, k := range r.Kernels {
		t.warpInstrs += k.Stats.WarpInstrs
		t.threadInstrs += k.Stats.ThreadInstrs
		t.throttled += k.Stats.ThrottledCycles
		t.tbsDispatched += k.Stats.TBsDispatched
		t.tbsPreempted += k.Stats.TBsPreempted
		t.memTxns += k.Stats.MemTxns
		t.l1Acc += k.Stats.L1Accesses
		t.l1Miss += k.Stats.L1Misses
		if k.IsQoS {
			t.qosKernels++
			t.ratioSum += k.GoalRatio
			if k.Reached {
				t.reached++
			}
		}
	}
}

func (t *simTotals) report(res *result, wall time.Duration) {
	cyc := float64(t.cycles)
	res.set("gpu.host_ns_per_warp_instr", float64(wall.Nanoseconds())/float64(t.warpInstrs), 1)
	res.set("sm.warp_instrs_per_cycle", float64(t.warpInstrs)/cyc, 1)
	res.set("sm.thread_instrs_per_cycle", float64(t.threadInstrs)/cyc, 1)
	res.set("sm.throttled_slot_share", float64(t.throttled)/float64(t.slots), 1)
	res.set("sm.tbs_dispatched", float64(t.tbsDispatched), 1)
	res.set("sm.tbs_preempted", float64(t.tbsPreempted), 1)
	res.set("sm.relaunches", float64(t.relaunches), 1)
	res.set("mem.txns_per_kcycle", 1000*float64(t.memTxns)/cyc, 1)
	if t.l1Acc > 0 {
		res.set("mem.l1_miss_rate", float64(t.l1Miss)/float64(t.l1Acc), 1)
	}
	if t.qosKernels > 0 {
		res.set("qos.reach_share", float64(t.reached)/float64(t.qosKernels), int(t.qosKernels))
		res.set("qos.goal_ratio_mean", t.ratioSum/float64(t.qosKernels), int(t.qosKernels))
	}
	res.set("qos.epochs", float64(t.epochs), 1)
	res.set("qos.quota_grants", float64(t.quotaGrants), 1)
	res.set("qos.gate_stalls", float64(t.gateStalls), 1)
}

// digestChanged compares the simulated results of the reference-seed
// plan with golden/<workload>.digest (1 = differs). The reference plan
// is the run's own when the run uses the reference seed; otherwise one
// extra pass simulates it, so the answer does not depend on -seed.
func digestChanged(ctx context.Context, e *env, name string, planFn func(uint64) simPlan, own *simPass) (float64, error) {
	pass := own
	if e.seed != defaultSeed {
		plan, sess, _, err := simSetup(ctx, e, planFn, defaultSeed, -1)
		if err != nil {
			return 0, err
		}
		if pass, err = runPass(ctx, sess, plan, nil, false, false); err != nil {
			return 0, err
		}
	}
	h := newDigest()
	h.add(pass.digs)
	return compareGolden(e, name, h.sum())
}
