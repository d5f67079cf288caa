package fleet

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/schema"
)

// TestRequestNewGoalForms round-trips the open-world goal forms through
// the /v2 request wire encoding and the per-node lowering: a time-based
// SLO resolves against each node's clock (Section 3.2's translation is
// instrs/(freq*seconds)), so on a clock-heterogeneous fleet the same
// request must lower to a different IPC target per node — which is why
// placement re-resolves per node instead of lowering once at ingress.
func TestRequestNewGoalForms(t *testing.T) {
	base := config.Base()
	slow := base
	slow.CoreClockMHz /= 2

	t.Run("latency-per-node", func(t *testing.T) {
		body := `{"name":"llm","workload":"infer","gpu_fraction":0.5,
			"goal":{"latency":{"instrs":3000000,"seconds":0.0002,"percentile":0.99}}}`
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if req.Goal == nil || req.Goal.Kind != schema.GoalLatency {
			t.Fatalf("decoded goal = %+v, want latency form", req.Goal)
		}
		onBase, err := req.SpecFor(base)
		if err != nil {
			t.Fatal(err)
		}
		onSlow, err := req.SpecFor(slow)
		if err != nil {
			t.Fatal(err)
		}
		if onBase.GoalIPC <= 0 || onSlow.GoalIPC <= 0 {
			t.Fatalf("lowered targets: base %v, half-clock %v", onBase.GoalIPC, onSlow.GoalIPC)
		}
		// Half the clock means the same wall-clock SLO needs twice the IPC.
		if onSlow.GoalIPC != 2*onBase.GoalIPC {
			t.Fatalf("half-clock node target = %v, want 2x the base node's %v", onSlow.GoalIPC, onBase.GoalIPC)
		}
		// The wire bytes must round-trip the typed union unchanged.
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Goal == nil || *back.Goal != *req.Goal {
			t.Fatalf("goal round trip = %+v, want %+v", back.Goal, req.Goal)
		}
	})

	t.Run("periodic-constrained-deadline", func(t *testing.T) {
		implicit := Request{Workload: "rtdet", GPUFraction: 0.5}
		g1 := schema.PeriodicGoal(schema.Periodic{Instrs: 2_000_000, PeriodS: 0.0005})
		implicit.Goal = &g1
		constrained := implicit
		g2 := schema.PeriodicGoal(schema.Periodic{Instrs: 2_000_000, PeriodS: 0.0005, DeadlineS: 0.0002})
		constrained.Goal = &g2

		si, err := implicit.SpecFor(base)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := constrained.SpecFor(base)
		if err != nil {
			t.Fatal(err)
		}
		if sc.GoalIPC <= si.GoalIPC {
			t.Fatalf("constrained deadline target %v not tighter than implicit-deadline target %v", sc.GoalIPC, si.GoalIPC)
		}
	})

	t.Run("invalid-form-rejected", func(t *testing.T) {
		g := schema.PeriodicGoal(schema.Periodic{Instrs: 10, PeriodS: 0.01, DeadlineS: 0.02})
		req := Request{Workload: "rtdet", GPUFraction: 0.5, Goal: &g}
		if _, err := req.SpecFor(base); err == nil {
			t.Fatal("deadline > period lowered without error")
		}
		if err := g.Validate(); err == nil {
			t.Fatal("Validate accepted deadline > period")
		} else if _, _, rerr := core.ResolveGoal(base, g); rerr == nil {
			t.Fatal("ResolveGoal accepted what Validate rejects")
		}
	})

	t.Run("non-finite-target-rejected", func(t *testing.T) {
		// Both fields positive, so Validate passes; the division is +Inf.
		body := `{"workload":"sgemm","gpu_fraction":0.5,
			"goal":{"deadline":{"instrs":9000000000000000000,"seconds":1e-300}}}`
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Goal.Validate(); err != nil {
			t.Fatalf("Validate = %v; the request must reach the lowering", err)
		}
		if spec, err := req.SpecFor(base); !errors.Is(err, core.ErrBadGoal) {
			t.Fatalf("SpecFor = (%+v, %v), want core.ErrBadGoal", spec, err)
		}
	})
}
