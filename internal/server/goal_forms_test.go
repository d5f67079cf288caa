package server

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
)

// TestKernelRequestNewGoalForms round-trips the open-world goal forms
// (latency SLO, periodic deadline) through the v1 request decoder and
// the lowering to core.KernelSpec, exactly as a wire client would
// exercise them.
func TestKernelRequestNewGoalForms(t *testing.T) {
	cfg := cfg16(t)

	t.Run("latency", func(t *testing.T) {
		var req JobRequest
		body := `{"kernel":{"workload":"infer",
			"goal":{"latency":{"instrs":3000000,"seconds":0.0002,"percentile":0.99}}}}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if req.Kernel.Goal == nil || req.Kernel.Goal.Kind != schema.GoalLatency {
			t.Fatalf("decoded goal = %+v, want latency form", req.Kernel.Goal)
		}
		spec, err := req.Kernel.spec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The SLO lowers through the deadline translation plus the tail
		// headroom: an IPC target strictly above the plain-deadline one.
		base, err := core.IPCGoalForDeadline(cfg, 3_000_000, 0.0002)
		if err != nil {
			t.Fatal(err)
		}
		if spec.GoalIPC <= base {
			t.Fatalf("latency GoalIPC = %v, want > plain-deadline target %v (tail headroom)", spec.GoalIPC, base)
		}
		if want := base * core.LatencyTailHeadroom(0.99); spec.GoalIPC != want {
			t.Fatalf("latency GoalIPC = %v, want %v", spec.GoalIPC, want)
		}
	})

	t.Run("periodic", func(t *testing.T) {
		var req JobRequest
		body := `{"kernel":{"workload":"rtdet",
			"goal":{"periodic":{"instrs":2000000,"period_s":0.0005,"deadline_s":0.0002}}}}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if req.Kernel.Goal == nil || req.Kernel.Goal.Kind != schema.GoalPeriodic {
			t.Fatalf("decoded goal = %+v, want periodic form", req.Kernel.Goal)
		}
		spec, err := req.Kernel.spec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The constrained deadline (not the period) is the budget.
		want, err := core.IPCGoalForDeadline(cfg, 2_000_000, 0.0002)
		if err != nil {
			t.Fatal(err)
		}
		if spec.GoalIPC != want {
			t.Fatalf("periodic GoalIPC = %v, want %v (deadline_s budget)", spec.GoalIPC, want)
		}
	})

	t.Run("typed-goal-exclusive-with-legacy", func(t *testing.T) {
		var req JobRequest
		body := `{"kernel":{"workload":"infer","goal_frac":0.5,
			"goal":{"latency":{"instrs":1000,"seconds":0.001}}}}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if _, err := req.Kernel.spec(cfg); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("typed+legacy goal: err = %v, want ErrBadRequest", err)
		}
	})

	t.Run("invalid-forms-are-400s", func(t *testing.T) {
		for _, body := range []string{
			`{"kernel":{"workload":"rtdet","goal":{"periodic":{"instrs":10,"period_s":0.01,"deadline_s":0.02}}}}`, // deadline > period
			`{"kernel":{"workload":"infer","goal":{"latency":{"instrs":10,"seconds":0.01,"percentile":0.1}}}}`,    // percentile < 0.5
			`{"kernel":{"workload":"infer","goal":{"latency":{"instrs":0,"seconds":0.01}}}}`,                      // no work
			`{"kernel":{"workload":"sgemm","deadline":{"instrs":9000000000000000000,"seconds":1e-300}}}`,          // IPC target +Inf
			`{"kernel":{"workload":"infer","goal":{"latency":{"instrs":9000000000000000000,"seconds":1e-300}}}}`,  // same, typed form
		} {
			var req JobRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatalf("%s: decode: %v", body, err)
			}
			if _, err := req.Kernel.spec(cfg); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: err = %v, want ErrBadRequest", body, err)
			}
		}
	})
}

// TestAdmissionLatencyGoal pushes a latency-SLO job through a live
// decision loop: the verdict must carry the derived IPC target and the
// QoS flag, the same contract TestAdmissionDeadlineGoal pins for the
// legacy deadline triple.
func TestAdmissionLatencyGoal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{})
	cfg := cfg16(t)
	g := schema.LatencyGoal(schema.Latency{Instrs: 3_000_000, Seconds: 200e-6})
	_, wantIPC, err := core.ResolveGoal(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	j := submitWait(t, s, JobRequest{Kernel: KernelRequest{Workload: "infer", Goal: &g}})
	if j.spec.GoalIPC != wantIPC {
		t.Fatalf("GoalIPC = %v, want %v", j.spec.GoalIPC, wantIPC)
	}
	v := j.view()
	if v.Verdict == nil || v.Verdict.Candidate.GoalIPC != wantIPC || !v.Verdict.Candidate.IsQoS {
		t.Fatalf("verdict = %+v", v.Verdict)
	}
}
