package workloads

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
)

func microIPC(t *testing.T, p kern.Profile) (float64, *gpu.GPU) {
	t.Helper()
	k, err := kern.Build(0, p, Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Base()
	cfg.NumSMs = 4
	g, err := gpu.New(cfg, []*kern.Kernel{k})
	if err != nil {
		t.Fatal(err)
	}
	g.RunCtx(context.Background(), 40_000)
	return g.IPC(0), g
}

func TestMicroProfilesValid(t *testing.T) {
	for _, p := range Micro() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestMicroALUApproachesIssueBound(t *testing.T) {
	ipc, g := microIPC(t, MicroALU())
	peak := float64(g.Cfg.PeakIssuePerCycle() * g.Cfg.WarpSize)
	if ipc < 0.5*peak {
		t.Fatalf("pure-ALU kernel at %.0f IPC, want > half of peak %.0f", ipc, peak)
	}
}

func TestMicroStreamSaturatesBandwidth(t *testing.T) {
	// Use the full 16-SM part: with few SMs the per-SM injection
	// credits bind before DRAM bandwidth does.
	k, err := kern.Build(0, MicroStream(), Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(config.Base(), []*kern.Kernel{k})
	if err != nil {
		t.Fatal(err)
	}
	g.RunCtx(context.Background(), 40_000)
	lines := float64(g.Stats[0].MemTxns) / float64(g.Now)
	// 4 MCs accepting ~1 line/cycle each (half that effective for
	// DRAM-bound streams): the streamer must keep them busy.
	if lines < 1.0 {
		t.Fatalf("streamer injects only %.2f lines/cycle", lines)
	}
}

func TestMicroPChaseIsLatencyBound(t *testing.T) {
	chase, _ := microIPC(t, MicroPChase())
	alu, _ := microIPC(t, MicroALU())
	if chase > alu/10 {
		t.Fatalf("pointer chase at %.0f IPC vs ALU %.0f; should be latency-crippled", chase, alu)
	}
	if chase <= 0 {
		t.Fatal("pointer chase made no progress")
	}
}

func TestMicroBarrierCostsThroughput(t *testing.T) {
	// With abundant TLP, other thread blocks hide barrier stalls (that
	// is the point of latency hiding); expose the cost by running a
	// single TB per SM.
	with := MicroBarrier()
	with.GridTBs = 4
	bar, _ := microIPC(t, with)
	free := with
	free.BarrierEvery = 0
	noBar, _ := microIPC(t, free)
	if bar >= noBar {
		t.Fatalf("barriers free even at 1 TB/SM: %.0f IPC with vs %.0f without", bar, noBar)
	}
}

func TestMicroNotInSuite(t *testing.T) {
	for _, p := range Micro() {
		if _, err := ByName(p.Name); err == nil {
			t.Errorf("%s leaked into the Parboil suite", p.Name)
		}
	}
}
