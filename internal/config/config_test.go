package config

import "testing"

func TestBaseIsValid(t *testing.T) {
	if err := Base().Validate(); err != nil {
		t.Fatalf("Base() invalid: %v", err)
	}
}

func TestScale56IsValid(t *testing.T) {
	g := Scale56()
	if err := g.Validate(); err != nil {
		t.Fatalf("Scale56() invalid: %v", err)
	}
	if g.NumSMs != 56 || g.WarpSchedulers != 2 {
		t.Fatalf("Scale56 = %d SMs / %d schedulers, want 56/2", g.NumSMs, g.WarpSchedulers)
	}
}

func TestBaseMatchesTable1(t *testing.T) {
	g := Base()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"NumSMs", g.NumSMs, 16},
		{"MCs", g.NumMemControllers, 4},
		{"CoreClockMHz", g.CoreClockMHz, 1216},
		{"MemClockMHz", g.MemClockMHz, 7000},
		{"RegFileKB", g.RegFileBytes >> 10, 256},
		{"SharedMemKB", g.SharedMemBytes >> 10, 96},
		{"Threads", g.MaxThreadsPerSM, 2048},
		{"TBLimit", g.MaxTBsPerSM, 32},
		{"WarpSchedulers", g.WarpSchedulers, 4},
		{"EpochLength", int(g.EpochLength), 10_000},
		{"IdleWarpSamples", g.IdleWarpSamples, 100},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("Table 1 mismatch %s: got %d want %d", c.name, c.got, c.want)
		}
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*GPU)
	}{
		{"zero SMs", func(g *GPU) { g.NumSMs = 0 }},
		{"zero schedulers", func(g *GPU) { g.WarpSchedulers = 0 }},
		{"65 schedulers", func(g *GPU) { g.WarpSchedulers = maxWarpContexts + 1 }},
		{"warp size 0", func(g *GPU) { g.WarpSize = 0 }},
		{"warp size 128", func(g *GPU) { g.WarpSize = 128 }},
		{"threads not warp multiple", func(g *GPU) { g.MaxThreadsPerSM = 2047 }},
		{"65 warp contexts", func(g *GPU) { g.MaxThreadsPerSM = 65 * g.WarpSize }},
		{"zero TB slots", func(g *GPU) { g.MaxTBsPerSM = 0 }},
		{"zero MCs", func(g *GPU) { g.NumMemControllers = 0 }},
		{"zero epoch", func(g *GPU) { g.EpochLength = 0 }},
		{"zero samples", func(g *GPU) { g.IdleWarpSamples = 0 }},
		{"samples exceed epoch", func(g *GPU) { g.IdleWarpSamples = int(g.EpochLength) + 1 }},
		{"zero MSHRs", func(g *GPU) { g.MSHRsPerSM = 0 }},
		{"zero mem ports", func(g *GPU) { g.MemPortsPerSM = 0 }},
		{"zero txn credits", func(g *GPU) { g.TxnFlightCapPerSM = 0 }},
		{"zero regfile", func(g *GPU) { g.RegFileBytes = 0 }},
		{"zero ctx bandwidth", func(g *GPU) { g.CtxSaveBWBytes = 0 }},
		{"zero issue backoff", func(g *GPU) { g.IssueBackoff = 0 }},
		{"zero ALU latency", func(g *GPU) { g.ALULatency = 0 }},
		{"negative SFU latency", func(g *GPU) { g.SFULatency = -20 }},
		{"zero shared-memory latency", func(g *GPU) { g.SharedMemLat = 0 }},
		{"zero barrier latency", func(g *GPU) { g.BarrierLat = 0 }},
		{"negative write latency", func(g *GPU) { g.WriteLatency = -4 }},
		{"zero L1 hit latency", func(g *GPU) { g.L1HitLatency = 0 }},
		{"odd L1 line", func(g *GPU) { g.L1.LineBytes = 100 }},
		{"L2 set count not pow2", func(g *GPU) { g.L2.SizeBytes = 3 * g.L2.LineBytes * g.L2.Assoc }},
	}
	for _, m := range muts {
		g := Base()
		m.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", m.name)
		}
	}
}

func TestCacheGeometry(t *testing.T) {
	c := Cache{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 4}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Sets(); got != 64 {
		t.Fatalf("Sets() = %d, want 64", got)
	}
	// A way's LRU tick lives in its line-offset and set-index bits, which
	// must hold assoc+2 values: 2 bits hold 4, enough for 2 ways, not 3.
	if err := (Cache{SizeBytes: 8, LineBytes: 4, Assoc: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Cache{SizeBytes: 12, LineBytes: 4, Assoc: 3}).Validate(); err == nil {
		t.Fatal("Validate accepted 3 ways with a 2-bit tick")
	}
}

func TestDerivedLimits(t *testing.T) {
	g := Base()
	if got := g.MaxWarpsPerSM(); got != 64 {
		t.Fatalf("MaxWarpsPerSM = %d, want 64", got)
	}
	if got := g.PeakIssuePerCycle(); got != 64 {
		t.Fatalf("PeakIssuePerCycle = %d, want 64", got)
	}
}
