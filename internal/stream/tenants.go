package stream

import "repro/internal/schema"

// DefaultTenants is the built-in four-tenant open-world mix `stream`
// uses when no tenant file is given. The goal
// values are calibrated against the Base device config (1216 MHz):
// the derived IPC targets sit at roughly 60-70% of each workload's
// isolated IPC, the regime where admission decisions are genuinely
// load-dependent — light mixes admit, saturated mixes reject — so
// arrival dynamics show up in the admit rate.
//
//   - llm:   serving-style inference ("infer") under a 100ms p99
//     latency SLO (13G instructions per request -> ~131 mean-IPC
//     target after tail headroom, ~60% of isolated ~220).
//   - rt:    periodic real-time detection ("rtdet"), 33ms period with
//     a constrained 25ms deadline (5.5G instructions per activation
//     -> ~181 IPC target, ~65% of isolated ~276).
//   - batch: throughput batch work ("sgemm") pinned to the paper's
//     sweep axis at 70% of isolated IPC.
//   - bg:    best-effort background streaming ("lbm"), no goal.
func DefaultTenants() []TenantSpec {
	return []TenantSpec{
		{
			Name: "llm", Weight: 3, Workload: "infer",
			Goal:   schema.LatencyGoal(schema.Latency{Instrs: 13_000_000_000, Seconds: 0.1}),
			HoldMs: 400, GPUFraction: 0.5,
		},
		{
			Name: "rt", Weight: 2, Workload: "rtdet",
			Goal:   schema.PeriodicGoal(schema.Periodic{Instrs: 5_500_000_000, PeriodS: 0.033, DeadlineS: 0.025}),
			HoldMs: 300, GPUFraction: 0.25,
		},
		{
			Name: "batch", Weight: 3, Workload: "sgemm",
			Goal:   schema.FracGoal(0.7),
			HoldMs: 600, GPUFraction: 0.5,
		},
		{
			Name: "bg", Weight: 2, Workload: "lbm",
			HoldMs: 500, GPUFraction: 0.25,
		},
	}
}
