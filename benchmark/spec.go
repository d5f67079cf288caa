package main

// The benchmark's vocabulary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root lists the
// same names (spec_test.go keeps the two in step); README.md is the
// glossary.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move (README's layer table).
	Moves string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (the driver requires it, and none may be 0),
// so each is defined for both kinds of workload:
//
//   - work_per_s: simulated cycles per host second (sim-*) or arrivals
//     decided per wall second over the whole drive, releases included
//     (serving).
//   - op_p50_ms: host time of one operation as the caller sees it. On
//     serving workloads the nearest-rank median over a repeat's arrivals
//     of POST to terminal verdict over HTTP; on sim-* one pass over the
//     plan's co-runs (a single co-run's median would follow the seed's
//     draw: co-runs differ 4x in cost).
//   - alloc_kb_per_op: heap bytes allocated (runtime TotalAlloc) over
//     the timed section per operation. A count, not a time: it repeats
//     within 1% on a box where times move 10%, and it is where the
//     journal's rewrite-the-file append shows (0.7 MB per decision).
//   - live_heap_mb: HeapAlloc after runtime.GC() at the end of the timed
//     section with the daemon / session still alive: what the process
//     retains, unbounded job, decision and journal-line stores included.
//   - setup_s: host time until the system is ready for the first timed
//     operation (see README per workload), fastest of the run's set-ups.
//
// work_per_s, op_p50_ms and setup_s count every operation with its
// fastest time across the run's units (passes or repeats), not with a
// median across them: see repeats and runSim. The bounds are wide
// because fleet-place, which keeps its free-running dynamics, spreads
// 7-13% over seeds (the other four: 2-6%), and a bound is per metric,
// not per workload.
var endToEnd = []metricDef{
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	onWarmFleet = "op_p50_ms, work_per_s on admit-warm and fleet-place"
	onSims      = "work_per_s, op_p50_ms on sim-*; op_p50_ms on admit-cold"
	simulated   = "none under a speed-only change (repeats exactly); moves with core.stats_digest_changed"
)

// perLayer are single-layer metrics (layer = package name prefix),
// measured from outside by timing calls into each package's public
// functions with the run's own inputs, plus counters the program
// exports. A workload a metric does not apply to reports 0.
var perLayer = []metricDef{
	// client: the benchmark's own closed-loop driver.
	{Name: "client.submit_p50_us", Unit: "us", Better: "lower", Moves: "is op_p50_ms"},
	{Name: "client.submit_p90_us", Unit: "us", Better: "lower", Moves: "tail of op latency (not end-to-end: sim-* have too few samples)"},
	{Name: "client.submit_p99_us", Unit: "us", Better: "lower", Moves: "informational: +-16% run to run at these sample sizes"},
	{Name: "client.release_p50_us", Unit: "us", Better: "lower", Moves: "work_per_s on serving"},
	{Name: "client.ops", Unit: "count", Better: "higher", Moves: "sample count of the timed section"},
	{Name: "client.throttled", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "client.drift_x", Unit: "x", Better: "lower", Moves: "last-quartile p50 over first-quartile p50; journal rewrite shows as >1 on admit-warm"},
	{Name: "client.repeat_spread_pct", Unit: "%", Better: "lower", Moves: "spread of op p50 across repeats of one run"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "traced over untraced op p50"},
	{Name: "client.attributed_share", Unit: "share", Better: "higher", Moves: "share of op p50 the named layers account for"},

	{Name: "server.drive_p50_us", Unit: "us", Better: "lower", Moves: onWarmFleet},
	{Name: "server.nojournal_drive_p50_us", Unit: "us", Better: "lower", Moves: onWarmFleet},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on admit-warm (~40%)"},
	{Name: "server.queue_store_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on admit-warm (<5%)"},
	{Name: "server.journal_share", Unit: "share", Better: "lower", Moves: "op_p50_ms on admit-warm"},
	{Name: "server.tier_cache_share", Unit: "share", Better: "higher", Moves: "op_p50_ms on admit-warm"},
	{Name: "server.tier_model_share", Unit: "share", Better: "higher", Moves: "0: no model is loaded"},
	{Name: "server.tier_sim_share", Unit: "share", Better: "lower", Moves: "op_p50_ms on admit-cold"},
	{Name: "server.cache_misses", Unit: "count", Better: "lower", Moves: "op_p50_ms on admit-warm"},
	{Name: "server.coalesced", Unit: "count", Better: "higher", Moves: "0 with one closed-loop client"},
	{Name: "server.sim_cycles_per_decision", Unit: "cycles", Better: "lower", Moves: "op_p50_ms on admit-cold"},
	{Name: "server.retained_kb_per_decision", Unit: "KB", Better: "lower", Moves: "live_heap_mb on serving"},
	{Name: "server.recover_ms", Unit: "ms", Better: "lower", Moves: "restart time on the run's journal; follows journal.open_ms"},

	{Name: "verdict.replay_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on admit-warm (<=1%), nothing on admit-cold"},
	{Name: "verdict.signature_ns", Unit: "ns", Better: "lower", Moves: "verdict.replay_p50_us"},
	{Name: "verdict.cache_get_ns", Unit: "ns", Better: "lower", Moves: "verdict.replay_p50_us"},
	{Name: "verdict.cache_len", Unit: "count", Better: "lower", Moves: "working set of the verdict cache"},

	{Name: "journal.append_p50_us", Unit: "us", Better: "lower", Moves: onWarmFleet},
	{Name: "journal.append_first_q_us", Unit: "us", Better: "lower", Moves: "client.drift_x on admit-warm"},
	{Name: "journal.append_last_q_us", Unit: "us", Better: "lower", Moves: "client.drift_x on admit-warm"},
	{Name: "journal.open_ms", Unit: "ms", Better: "lower", Moves: "server.recover_ms"},
	{Name: "journal.records", Unit: "count", Better: "lower", Moves: "must be equal across commits"},
	{Name: "journal.file_kb", Unit: "KB", Better: "lower", Moves: "journal.open_ms"},
	{Name: "journal.write_kb_per_decision", Unit: "KB", Better: "lower", Moves: "op_p50_ms on admit-warm; /proc/self/io wchar over arrivals"},

	{Name: "fleet.submit_wait_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on fleet-place only"},
	{Name: "fleet.nojournal_submit_wait_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on fleet-place only"},
	{Name: "fleet.release_p50_us", Unit: "us", Better: "lower", Moves: "work_per_s on fleet-place only"},
	{Name: "fleet.placements", Unit: "count", Better: "higher", Moves: "repeats exactly"},
	{Name: "fleet.rejects", Unit: "count", Better: "lower", Moves: "repeats exactly"},
	{Name: "fleet.repartitions", Unit: "count", Better: "higher", Moves: "repeats exactly"},
	{Name: "fleet.sim_evals_per_placement", Unit: "count", Better: "lower", Moves: "client.submit_p90_us on fleet-place"},
	{Name: "fleet.tier_cache_share", Unit: "share", Better: "higher", Moves: "op_p50_ms on fleet-place"},
	{Name: "fleet.cold_start_s", Unit: "s", Better: "lower", Moves: "warming four nodes from nothing (setup_s on fleet-place is the restart on warm journals)"},
	{Name: "fleet.journal_files", Unit: "count", Better: "lower", Moves: "appends per placement"},

	{Name: "stream.generate_ms", Unit: "ms", Better: "lower", Moves: "setup_s (<1%)"},
	{Name: "stream.driver_overhead_us", Unit: "us", Better: "lower", Moves: "work_per_s on admit-warm (<1%)"},
	{Name: "stream.arrivals", Unit: "count", Better: "higher", Moves: "repeats exactly"},
	{Name: "stream.admit_rate", Unit: "share", Better: "higher", Moves: "must repeat exactly"},

	{Name: "core.run_cycles_per_s.rollover", Unit: "1/s", Better: "higher", Moves: onSims},
	{Name: "core.run_cycles_per_s.elastic", Unit: "1/s", Better: "higher", Moves: onSims},
	{Name: "core.run_cycles_per_s.naive-history", Unit: "1/s", Better: "higher", Moves: onSims},
	{Name: "core.run_cycles_per_s.spart", Unit: "1/s", Better: "higher", Moves: onSims},
	{Name: "core.run_cycles_per_s.naive", Unit: "1/s", Better: "higher", Moves: onSims},
	{Name: "core.run_cycles_per_s.rollover-time", Unit: "1/s", Better: "higher", Moves: onSims},
	{Name: "core.run_cycles_per_s.none", Unit: "1/s", Better: "higher", Moves: onSims},
	{Name: "core.isolated_ipc_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "core.mallocs_per_run", Unit: "count", Better: "lower", Moves: "work_per_s on sim-*"},
	{Name: "core.alloc_kb_per_run", Unit: "KB", Better: "lower", Moves: "work_per_s on sim-*"},
	{Name: "core.traced_run_overhead_pct", Unit: "%", Better: "lower", Moves: "op_p50_ms on admit-cold (the sim tier runs RunTraced)"},
	{Name: "core.stats_digest_changed", Unit: "count", Better: "lower", Moves: "0/1 against golden/<workload>.digest; a speed-only change leaves it 0"},

	{Name: "gpu.host_ns_per_warp_instr", Unit: "ns", Better: "lower", Moves: "work_per_s on sim-dense (issue cost); on sim-sparse cycles, not instructions, drive host time"},

	{Name: "sm.warp_instrs_per_cycle", Unit: "count", Better: "higher", Moves: simulated},
	{Name: "sm.thread_instrs_per_cycle", Unit: "count", Better: "higher", Moves: simulated},
	{Name: "sm.throttled_slot_share", Unit: "share", Better: "lower", Moves: simulated},
	{Name: "sm.tbs_dispatched", Unit: "count", Better: "higher", Moves: simulated},
	{Name: "sm.tbs_preempted", Unit: "count", Better: "lower", Moves: simulated},
	{Name: "sm.relaunches", Unit: "count", Better: "lower", Moves: simulated},
	{Name: "mem.txns_per_kcycle", Unit: "count", Better: "lower", Moves: simulated},
	{Name: "mem.l1_miss_rate", Unit: "share", Better: "lower", Moves: simulated},
	{Name: "qos.reach_share", Unit: "share", Better: "higher", Moves: simulated},
	{Name: "qos.goal_ratio_mean", Unit: "x", Better: "higher", Moves: simulated},
	{Name: "qos.epochs", Unit: "count", Better: "lower", Moves: simulated},
	{Name: "qos.quota_grants", Unit: "count", Better: "lower", Moves: simulated},
	{Name: "qos.gate_stalls", Unit: "count", Better: "lower", Moves: simulated},
}

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(e *env) (*result, error)
}

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds, and the default of -seconds).
const runSeconds = 15

// defaultSeed is the seed of a bare `go run ./benchmark`. Claims are
// made on heldOutSeed, which nobody tunes against (README).
const (
	defaultSeed = 1
	heldOutSeed = 1000003
)

// workloads in reporting order. Names are fixed (ISSUE 12).
var workloads = []workloadDef{
	{Name: "sim-dense", run: runSimDense,
		Why: "issue-bound simulator: 20 pairs + 2 trios drawn by seed, goals 0.5-0.95, 4 schemes, 30k-cycle window, serial Session.Run, 1 client; serving stack idle"},
	{Name: "sim-sparse", run: runSimSparse,
		Why: "stepping-bound simulator: 10 gate-stalled Naive pairs, 5 rollover-time pairs, pointer chase, draining 16-TB grid, 60k cycles; wheel, idle fast path, wake heaps"},
	{Name: "admit-warm", run: runAdmitWarm,
		Why: "/v1 over HTTP, 1 closed-loop client, journal on, cache warm: 250 Poisson arrivals per repeat against 2 resident jobs; server+verdict+journal work, simulator idle"},
	{Name: "admit-cold", run: runAdmitCold,
		Why: "same daemon, 30 arrivals per repeat whose goals are jittered per arrival so every signature is new: every decision simulates 3 kernels; journal and HTTP <4%"},
	{Name: "fleet-place", run: runFleetPlace,
		Why: "/v2 over HTTP on base x3 + scale56 nodes, 200 bursty MMPP arrivals per repeat, admit rate ~0.8: place, reject, release, repartition; five small journals"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
