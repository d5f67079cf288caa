package fleet

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/schema"
)

// stubResult is a what-if verdict without the simulator, a pure function
// of the mix: each kernel gets an isolated IPC from its workload's name
// and a share of it that shrinks with the mix size, so larger mixes miss
// goals and placement rejects, releases and repartitions as it does on
// real verdicts.
func stubResult(specs []core.KernelSpec, scheme core.Scheme) *core.Result {
	res := &core.Result{Scheme: scheme, Cycles: 20_000, AllReached: true}
	for i, sp := range specs {
		h := fnv.New64a()
		h.Write([]byte(sp.Workload))
		iso := 200 + float64(h.Sum64()%100000)/317
		ipc := iso * (1.1 - 0.23*float64(len(specs))) * (1 + 0.01*float64(i))
		kr := core.KernelResult{Name: sp.Workload, IPC: ipc, IsolatedIPC: iso, NormThroughput: ipc / iso}
		if goal := max(sp.GoalFrac*iso, sp.GoalIPC); goal > 0 {
			kr.IsQoS, kr.GoalIPC, kr.GoalRatio = true, goal, ipc/goal
			kr.Reached = ipc >= goal
			res.AllReached = res.AllReached && kr.Reached
		}
		res.Kernels = append(res.Kernels, kr)
	}
	return res
}

// recoverConfig is the benchmark's fleet: three base nodes and one
// 56-SM node, rollover, verdict cache on, journals in dir.
func recoverConfig(dir string) Config {
	return Config{
		Nodes: []NodeSpec{
			{Name: "base-0", GPU: config.Base()},
			{Name: "base-1", GPU: config.Base()},
			{Name: "base-2", GPU: config.Base()},
			{Name: "scale56", GPU: config.Scale56()},
		},
		Scheme:     core.SchemeRollover,
		Window:     20_000,
		FastPath:   true,
		JournalDir: dir,
	}
}

// genRequests is a seeded arrival stream over every request form: the
// five goal forms and best effort, whole-device and vgpu shares, named
// and anonymous.
func genRequests(seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	goal := func(g schema.Goal) *schema.Goal { return &g }
	tenants := []func() Request{
		func() Request {
			return Request{Name: "llm", Workload: "infer", GPUFraction: 0.5,
				Goal: goal(schema.LatencyGoal(schema.Latency{Instrs: 13_000_000_000, Seconds: 0.1}))}
		},
		func() Request {
			return Request{Name: "rt", Workload: "rtdet", GPUFraction: 0.25,
				Goal: goal(schema.PeriodicGoal(schema.Periodic{Instrs: 5_500_000_000, PeriodS: 0.033, DeadlineS: 0.025}))}
		},
		func() Request {
			return Request{Name: "batch", Workload: "sgemm", GPUFraction: 0.5, Goal: goal(schema.FracGoal([]float64{0.5, 0.7, 0.9}[rng.Intn(3)]))}
		},
		func() Request { return Request{Name: "bg", Workload: "lbm", GPUFraction: 0.25} },
		func() Request {
			return Request{Workload: "spmv", VGPUCores: 30, Goal: goal(schema.IPCGoal(float64(100 * (1 + rng.Intn(3)))))}
		},
		func() Request {
			return Request{Workload: "histo", VGPUCores: 40, VGPUMemory: 25,
				Goal: goal(schema.DeadlineGoal(schema.Deadline{Instrs: 2_000_000_000, Seconds: 0.5, TransferBytes: 1 << 20}))}
		},
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = tenants[rng.Intn(len(tenants))]()
	}
	return reqs
}

// genJournals drives a stubbed fleet over dir through n seeded
// arrivals, releasing a resident job now and then, and returns how many
// records its journals hold. Every decision is a stub verdict, so a
// journal of hundreds of records takes well under a second.
func genJournals(tb testing.TB, dir string, n int) int {
	tb.Helper()
	f, err := New(recoverConfig(dir))
	if err != nil {
		tb.Fatal(err)
	}
	StubSims(f, stubResult)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rng := rand.New(rand.NewSource(7))
	var resident []string
	for _, req := range genRequests(1, n) {
		j, err := f.Submit(req)
		if err != nil {
			tb.Fatal(err)
		}
		v, err := f.Wait(ctx, j.ID())
		if err != nil && !errors.Is(err, ErrNoPlacement) {
			tb.Fatal(err)
		}
		if v.State == StatePlaced {
			resident = append(resident, v.ID)
		}
		for len(resident) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(resident))
			if err := f.Release(resident[k]); err != nil {
				tb.Fatal(err)
			}
			resident = append(resident[:k], resident[k+1:]...)
		}
	}
	records := len(f.Placements())
	for _, nv := range f.Nodes() {
		records += nv.Decisions
	}
	if err := f.Shutdown(ctx); err != nil {
		tb.Fatal(err)
	}
	return records
}

// BenchmarkFleetRecover times a fleet restart, New over the journals of
// genJournals' 200 arrivals on the benchmark's four-node fleet (≈ 1 250
// records): node journals replayed into each node's verdict cache, then
// the placement journal. It reports µs and allocations per record
// recovered; the files are read from the page cache. `make
// bench-journal` runs it.
func BenchmarkFleetRecover(b *testing.B) {
	dir := b.TempDir()
	records := genJournals(b, dir, 200)
	cfg := recoverConfig(dir)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N * records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/per, "us/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/record")
	b.ReportMetric(float64(records), "records")
}
