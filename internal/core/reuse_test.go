package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/trace"
)

// freshDevices makes every device s runs, kernels included, a newly built
// one: the reference a session that rebuilds its last device must match.
func freshDevices(s *Session) {
	s.build = func(d *device, cfg config.GPU, specs []KernelSpec, seed uint64) error {
		*d = device{} // no previous device, and no controller built on one
		return rebuild(d, cfg, specs, seed)
	}
}

// reuseStep is one co-run of a reuse sequence.
type reuseStep struct {
	specs  []KernelSpec
	scheme Scheme
	traced bool
}

// runStep runs st on s and returns its Result, the Result's JSON and, when
// traced, its exported trace.
func runStep(t *testing.T, s *Session, st reuseStep) (r *Result, res, events []byte) {
	t.Helper()
	var tr *trace.Tracer
	if st.traced {
		tr = trace.New(trace.DefaultRingSize)
	}
	r, err := s.RunTraced(context.Background(), st.specs, st.scheme, tr)
	if err != nil {
		t.Fatalf("%v %v: %v", st.scheme, st.specs, err)
	}
	if res, err = json.Marshal(r); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		if tr.Dropped() != 0 {
			t.Fatalf("ring dropped %d events; the trace comparison would be partial", tr.Dropped())
		}
		var buf bytes.Buffer
		if err := trace.Export(&buf, tr, trace.FormatJSONL); err != nil {
			t.Fatal(err)
		}
		events = buf.Bytes()
	}
	return r, res, events
}

// reuseSequence draws a seeded sequence over the given schemes, in order:
// SchemeNone alone is a lone isolated run, any other scheme a pair or a
// trio whose first kernel carries a goal. Every other step is traced.
func reuseSequence(seed uint64, schemes []Scheme) []reuseStep {
	pool := []string{"cutcp", "histo", "lbm", "mri-gridding", "mri-q", "sad", "sgemm", "spmv", "stencil", "tpacf"}
	src := rng.New(seed)
	var steps []reuseStep
	for i, sc := range schemes {
		n := 2 + src.Intn(2)
		if sc == SchemeNone {
			n = 1
		}
		st := reuseStep{scheme: sc, traced: i%2 == 1}
		for len(st.specs) < n { // n distinct workloads
			w := pool[src.Intn(len(pool))]
			if !slices.ContainsFunc(st.specs, func(k KernelSpec) bool { return k.Workload == w }) {
				st.specs = append(st.specs, KernelSpec{Workload: w})
			}
		}
		if sc != SchemeNone {
			st.specs[0].GoalFrac = 0.5 + 0.05*float64(src.Intn(10))
		}
		steps = append(steps, st)
	}
	return steps
}

// TestReusedDeviceMatchesFresh: a session rebuilds the device of its last
// run for the next, so every run but the first starts on a device another
// run has used — drained SMs, saved contexts, busy preemption lanes, warm
// caches, TBs in the stores. Seeded sequences of co-runs on one session
// each (lone isolated runs, pairs and trios, all seven schemes, traced and
// untraced, the event wheel on and off, Base and Scale56) must equal, byte
// for byte in Result JSON and exported trace, the same co-runs on fresh
// sessions whose every device is newly built, isolated baselines included.
// A run canceled mid-window sits between two others: it hands no device
// back, and the run after it still matches. A fixed sequence moves sgemm
// from slot 0 to slot 1 and back, so a kernel and its program are rebuilt
// for another slot, and drains SMs in two Spart runs in a row whose saved
// contexts resume, so the second saves into and resumes recycled ones.
func TestReusedDeviceMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if raceEnabled {
		t.Skip("one goroutine, so nothing for the race detector, at fifteen times the time; TestSessionSharedByTwoGoroutines is the raced one")
	}
	all := []Scheme{SchemeNone, SchemeSpart, SchemeRollover, SchemeElastic, SchemeNaive,
		SchemeNone, SchemeSpart, SchemeRolloverTime, SchemeNaiveHistory}
	sgemm, sad := KernelSpec{Workload: "sgemm", GoalFrac: 0.6}, KernelSpec{Workload: "sad"}
	moves := []reuseStep{
		{specs: []KernelSpec{{Workload: "stencil", GoalFrac: 0.95}, {Workload: "spmv"}}, scheme: SchemeRollover}, // ends at α > 1
		{specs: []KernelSpec{sgemm, {Workload: "spmv"}}, scheme: SchemeNaiveHistory, traced: true},
		{specs: []KernelSpec{{Workload: "spmv", GoalFrac: 0.8}, {Workload: "sgemm"}}, scheme: SchemeRollover},
		{specs: []KernelSpec{sgemm, sad}, scheme: SchemeSpart},
		{specs: []KernelSpec{{Workload: "cutcp", GoalFrac: 0.6}, sad}, scheme: SchemeSpart, traced: true},
	}
	for _, tc := range []struct {
		name    string
		cfg     config.GPU
		epochs  int64 // the window
		wheel   bool
		steps   []reuseStep
		cancel  int // index of the canceled step, -1 for none
		drains  int // Spart steps that must preempt
		resumes int // traced Spart steps that must resume a saved context
	}{
		{"base", config.Base(), 2, true, reuseSequence(4, all), 4, 1, 0},
		{"base-per-cycle", config.Base(), 2, false, reuseSequence(14, []Scheme{SchemeSpart, SchemeNone, SchemeRollover}), -1, 1, 0},
		{"scale56", config.Scale56(), 2, true, reuseSequence(7, []Scheme{SchemeSpart, SchemeElastic}), -1, 1, 0},
		{"slot-moves", config.Base(), 4, true, moves, -1, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithGPU(tc.cfg), WithWindow(tc.epochs * tc.cfg.EpochLength), WithEventWheel(tc.wheel)}
			s, err := NewSession(opts...)
			if err != nil {
				t.Fatal(err)
			}
			refCache := newIsolatedCache() // the fresh sessions' baselines, measured once
			drains, resumes := 0, 0
			var held *device // the idle device, held so no collection clears it
			for i, st := range tc.steps {
				if i == tc.cancel {
					// Baselines first, so the cancel lands in the co-run.
					for _, sp := range st.specs {
						if _, err := s.IsolatedIPC(context.Background(), sp); err != nil {
							t.Fatal(err)
						}
					}
					ctx := &cancelAfter{Context: context.Background()}
					ctx.n.Store(1)
					if _, err := s.Run(ctx, st.specs, st.scheme); !errors.Is(err, context.Canceled) {
						t.Fatalf("step %d: err = %v, want context.Canceled", i, err)
					}
					if idleDevice(s) != nil {
						t.Fatalf("step %d: a canceled run handed its device back", i)
					}
					held = nil
					continue
				}
				r, res, events := runStep(t, s, st)
				if dev := idleDevice(s); held != nil && dev != held {
					t.Fatalf("step %d: ran on a new device, not the previous one rebuilt", i)
				}
				held = idleDevice(s)
				ref, err := NewSession(opts...)
				if err != nil {
					t.Fatal(err)
				}
				ref.isolated = refCache
				freshDevices(ref)
				_, refRes, refEvents := runStep(t, ref, st)
				if !bytes.Equal(res, refRes) {
					t.Fatalf("step %d (%v %v): the reused device's result differs from a fresh one's:\nreused: %s\n fresh: %s",
						i, st.scheme, st.specs, res, refRes)
				}
				if !bytes.Equal(events, refEvents) {
					t.Fatalf("step %d (%v %v): the reused device's trace differs from a fresh one's", i, st.scheme, st.specs)
				}
				if st.scheme == SchemeSpart && slices.ContainsFunc(r.Kernels, func(k KernelResult) bool { return k.Stats.TBsPreempted > 0 }) {
					drains++
				}
				if st.scheme == SchemeSpart && bytes.Contains(events, []byte(`"tb_restore"`)) {
					resumes++
				}
			}
			if drains < tc.drains || resumes < tc.resumes {
				t.Fatalf("%d Spart runs drained an SM and %d traced ones resumed a context, want %d and %d: "+
					"the sequence leaves too few saved contexts or blocked SMs behind", drains, resumes, tc.drains, tc.resumes)
			}
		})
	}
}

// TestSessionSharedByTwoGoroutines: a Session is safe for concurrent use:
// concurrent runs each take their own device from its idle pool, and a
// device passes between runs on different goroutines. Two goroutines
// alternate co-runs on one session (run it under -race), and every result
// equals the same co-run on freshly built devices.
func TestSessionSharedByTwoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := fastSession(t)
	ref := fastSession(t)
	freshDevices(ref)
	mixes := [][]KernelSpec{
		{{Profile: customProfile("a"), GoalFrac: 0.5}, {Profile: customProfile("b")}},
		{{Profile: customProfile("c"), GoalFrac: 0.7}, {Workload: "lbm"}},
	}
	want := make([][]byte, len(mixes))
	for i, specs := range mixes {
		_, want[i], _ = runStep(t, ref, reuseStep{specs: specs, scheme: SchemeRollover})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(mixes))
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 {
				i := (g + r) % len(mixes)
				res, err := s.Run(context.Background(), mixes[i], SchemeRollover)
				if err != nil {
					errs <- err
					return
				}
				if b, _ := json.Marshal(res); !bytes.Equal(b, want[i]) {
					errs <- fmt.Errorf("goroutine %d run %d: mix %d differs from its fresh-device result", g, r, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSecondRunAllocatesLittle: the second of two identical co-runs on one
// session rebuilds the first's device, so it allocates at most a tenth of
// the bytes the first did (counted, with the collector off, not timed).
// After a collection the session holds no device: it keeps its idle
// device weakly, so an idle session costs no live heap.
func TestSecondRunAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s, err := NewSession(WithWindow(2 * config.Base().EpochLength))
	if err != nil {
		t.Fatal(err)
	}
	specs := []KernelSpec{{Workload: "sgemm", GoalFrac: 0.6}, {Workload: "lbm"}}
	for _, sp := range specs { // baselines outside the measurement
		if _, err := s.IsolatedIPC(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(context.Background(), specs, SchemeRollover); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The collector ran after the baselines, so the first run builds afresh.
	first, second := allocated(), allocated()
	t.Logf("first run %d KB, second %d KB", first>>10, second>>10)
	// A race build turns off the compiler's append-of-make rewrite, so
	// there every buffer a rebuild zeroes allocates a temporary.
	if second*10 > first && !raceEnabled {
		t.Fatalf("the second co-run allocated %d B, over a tenth of the first's %d B", second, first)
	}
	runtime.GC()
	if idleDevice(s) != nil {
		t.Fatal("the session still holds its idle device after a collection: it would pin a device per session")
	}
	runtime.KeepAlive(s)
}

// warmCases is TestWarmCoRunAllocates' and BenchmarkWarmCoRun's co-runs:
// every scheme on one pair (Spart's repartition drains SMs, so saved
// contexts are recycled) and Rollover on one trio.
func warmCases() []reuseStep {
	pair := []KernelSpec{{Workload: "sgemm", GoalFrac: 0.6}, {Workload: "lbm"}}
	var cases []reuseStep
	for _, sc := range Schemes() {
		cases = append(cases, reuseStep{specs: pair, scheme: sc})
	}
	trio := []KernelSpec{{Workload: "mri-q", GoalFrac: 0.7}, {Workload: "spmv"}, {Workload: "stencil"}}
	return append(cases, reuseStep{specs: trio, scheme: SchemeRollover})
}

// warmSession returns a Base session at a two-epoch window that has run
// every warm case twice: its idle device has grown to what they need.
func warmSession(tb testing.TB) *Session {
	s, err := NewSession(WithWindow(2 * config.Base().EpochLength))
	if err != nil {
		tb.Fatal(err)
	}
	for range 2 {
		for _, c := range warmCases() {
			if _, err := s.Run(context.Background(), c.specs, c.scheme); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// Ceilings of TestWarmCoRunAllocates, per warm co-run.
const (
	warmMaxBytes  = 4 << 10
	warmMaxAllocs = 16
)

// TestWarmCoRunAllocates: a warm session's co-run allocates little more
// than the Result it returns. Kernels, decoded programs, saved contexts,
// idle-warp averages and the scheme's controller are all rebuilt in the
// idle device's storage. Each case, an untraced co-run repeated on a
// warm session with the collector off (which would clear the session's
// weak hold on its device), stays under warmMaxBytes and warmMaxAllocs.
// So does each of alternating Spart and Rollover co-runs with no settling
// run between them: the device keeps a controller of each type.
func TestWarmCoRunAllocates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if raceEnabled {
		// A race build also turns off the compiler's append-of-make
		// rewrite, so every buffer a rebuild zeroes allocates there.
		t.Skip("one goroutine, and allocations a race build adds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := warmSession(t)
	ctx := context.Background()
	for _, c := range warmCases() {
		var res *Result
		run := func() {
			var err error
			if res, err = s.Run(ctx, c.specs, c.scheme); err != nil {
				t.Fatal(err)
			}
		}
		run() // growth from the previous case's needs
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 3
		allocs := testing.AllocsPerRun(runs, run) // one more run first, unmeasured
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%v, %d kernels: %.0f allocations, %d B", c.scheme, len(c.specs), allocs, bytes)
		if c.scheme == SchemeSpart && res.Kernels[0].Stats.TBsPreempted+res.Kernels[1].Stats.TBsPreempted == 0 {
			t.Fatal("the Spart pair preempted nothing: no saved context was recycled")
		}
		if bytes > warmMaxBytes || allocs > warmMaxAllocs {
			t.Errorf("%v %v: a warm co-run allocated %d B in %.0f allocations, over %d B or %d",
				c.scheme, c.specs, bytes, allocs, warmMaxBytes, warmMaxAllocs)
		}
	}
	pair := warmCases()[0].specs
	for k := range 6 {
		scheme := [2]Scheme{SchemeSpart, SchemeRollover}[k%2]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(ctx, pair, scheme); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("alternating %v: %d allocations, %d B", scheme, allocs, bytes)
		if bytes > warmMaxBytes || allocs > warmMaxAllocs {
			t.Errorf("alternating run %d, %v: a warm co-run allocated %d B in %d allocations, over %d B or %d",
				k, scheme, bytes, allocs, warmMaxBytes, warmMaxAllocs)
		}
	}
}

// BenchmarkWarmCoRun reports what one co-run of each scheme costs on a
// warm session: the pair of TestWarmCoRunAllocates, untraced, with the
// collector off as there (the benchmark loop collects before each
// measurement, so the device is rebuilt in two co-runs left unmeasured).
func BenchmarkWarmCoRun(b *testing.B) {
	s := warmSession(b)
	for _, c := range warmCases()[:len(Schemes())] {
		b.Run(c.scheme.Name(), func(b *testing.B) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run := func() {
				if _, err := s.Run(context.Background(), c.specs, c.scheme); err != nil {
					b.Fatal(err)
				}
			}
			run() // as in TestWarmCoRunAllocates: rebuild, then settle
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				run()
			}
		})
	}
}
