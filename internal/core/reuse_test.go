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
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/rng"
	"repro/internal/trace"
)

// freshDevices makes every device s runs a newly built one: the reference
// a session that rebuilds its last device must match.
func freshDevices(s *Session) {
	s.newGPU = func(_ *gpu.GPU, cfg config.GPU, kernels []*kern.Kernel) (*gpu.GPU, error) {
		return gpu.New(cfg, kernels)
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
// back, and the run after it still matches.
func TestReusedDeviceMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if raceEnabled {
		t.Skip("one goroutine, so nothing for the race detector, at fifteen times the time; TestSessionSharedByTwoGoroutines is the raced one")
	}
	all := []Scheme{SchemeNone, SchemeSpart, SchemeRollover, SchemeElastic, SchemeNaive,
		SchemeNone, SchemeSpart, SchemeRolloverTime, SchemeNaiveHistory}
	for _, tc := range []struct {
		name    string
		cfg     config.GPU
		wheel   bool
		schemes []Scheme
		cancel  int // index of the canceled step, -1 for none
	}{
		{"base", config.Base(), true, all, 4},
		{"base-per-cycle", config.Base(), false, []Scheme{SchemeSpart, SchemeNone, SchemeRollover}, -1},
		{"scale56", config.Scale56(), true, []Scheme{SchemeSpart, SchemeElastic}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithGPU(tc.cfg), WithWindow(2 * tc.cfg.EpochLength), WithEventWheel(tc.wheel)}
			s, err := NewSession(opts...)
			if err != nil {
				t.Fatal(err)
			}
			refCache := NewIsolatedCache()
			steps := reuseSequence(uint64(len(tc.name)), tc.schemes)
			drained := false
			for i, st := range steps {
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
					if s.idle.Value() != nil {
						t.Fatalf("step %d: a canceled run handed its device back", i)
					}
					continue
				}
				r, res, events := runStep(t, s, st)
				ref, err := NewSession(append(opts, WithIsolatedCache(refCache))...)
				if err != nil {
					t.Fatal(err)
				}
				freshDevices(ref)
				_, refRes, refEvents := runStep(t, ref, st)
				if !bytes.Equal(res, refRes) {
					t.Fatalf("step %d (%v %v): the reused device's result differs from a fresh one's:\nreused: %s\n fresh: %s",
						i, st.scheme, st.specs, res, refRes)
				}
				if !bytes.Equal(events, refEvents) {
					t.Fatalf("step %d (%v %v): the reused device's trace differs from a fresh one's", i, st.scheme, st.specs)
				}
				for _, k := range r.Kernels {
					drained = drained || st.scheme == SchemeSpart && k.Stats.TBsPreempted > 0
				}
			}
			if !drained {
				t.Fatal("no Spart run drained an SM: the sequence never left saved contexts or a blocked SM behind")
			}
		})
	}
}

// TestSessionSharedByTwoGoroutines: a Session is safe for concurrent use,
// and its idle device passes between runs on different goroutines. Two
// goroutines alternate co-runs on one session (run it under -race), and
// every result equals the same co-run on freshly built devices.
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
	if s.idle.Value() != nil {
		t.Fatal("the session still holds its idle device after a collection: it would pin a device per session")
	}
	runtime.KeepAlive(s)
}
