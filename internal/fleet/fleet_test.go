package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/schema"
)

func goalOf(f float64) *schema.Goal {
	g := schema.FracGoal(f)
	return &g
}

// smallGPU is a half-size device so the test fleet is heterogeneous.
func smallGPU() config.GPU {
	g := config.Base()
	g.NumSMs = 8
	g.NumMemControllers = 2
	return g
}

// hetFleetConfig is the 4-node heterogeneous fleet from the issue's
// acceptance scenario: two full-size devices, two half-size.
func hetFleetConfig(dir string) Config {
	return Config{
		Nodes: []NodeSpec{
			{Name: "big-a", GPU: config.Base()},
			{Name: "big-b", GPU: config.Base()},
			{Name: "small-a", GPU: smallGPU()},
			{Name: "small-b", GPU: smallGPU()},
		},
		Scheme:     core.SchemeRollover,
		Window:     20_000,
		FastPath:   true,
		JournalDir: dir,
	}
}

// hetStream mixes QoS and best-effort jobs across the fractional
// request vocabulary.
func hetStream() []Request {
	return []Request{
		{Name: "q1", Workload: "sgemm", GPUFraction: 0.5, Goal: goalOf(0.5)},
		{Name: "b1", Workload: "histo", VGPUCores: 30, VGPUMemory: 50},
		{Name: "q2", Workload: "lbm", GPUFraction: 0.4, Goal: goalOf(0.3)},
		{Name: "b2", Workload: "sgemm", GPUFraction: 0.25},
		{Name: "q3", Workload: "spmv", VGPUCores: 50, Goal: goalOf(0.4)},
		{Name: "b3", Workload: "histo", GPUFraction: 0.2},
	}
}

func mustShutdown(t *testing.T, f *Fleet) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// submitAll pushes the stream and waits for every terminal outcome.
func submitAll(t *testing.T, f *Fleet, reqs []Request) {
	t.Helper()
	ids := make([]string, 0, len(reqs))
	for _, r := range reqs {
		j, err := f.Submit(r)
		if err != nil {
			t.Fatalf("submit %s: %v", r.Name, err)
		}
		ids = append(ids, j.ID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, id := range ids {
		if _, err := f.Wait(ctx, id); err != nil && !errors.Is(err, ErrNoPlacement) {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
}

// journalBytes reads every journal file in dir keyed by file name.
func journalBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestFleetPlacementDeterminism is the issue's acceptance scenario: a
// 4-node heterogeneous fleet admits a mixed job stream with
// deterministic placements — two independent runs produce identical
// placement sequences and byte-identical journals, and a kill+restart
// mid-stream continues to the same bytes as the uninterrupted run.
func TestFleetPlacementDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation in -short")
	}
	stream := hetStream()

	run := func(dir string) []Placement {
		f, err := New(hetFleetConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, f, stream)
		ps := f.Placements()
		mustShutdown(t, f)
		return ps
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	psA := run(dirA)
	psB := run(dirB)
	if !reflect.DeepEqual(psA, psB) {
		t.Fatalf("placement sequences differ across identical runs:\nA: %+v\nB: %+v", psA, psB)
	}
	if len(psA) == 0 {
		t.Fatal("no placements recorded")
	}
	placed := 0
	for _, p := range psA {
		if p.Kind == KindPlace {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("stream placed no jobs")
	}

	bytesA, bytesB := journalBytes(t, dirA), journalBytes(t, dirB)
	if len(bytesA) != 5 { // 4 node journals + placements.jnl
		t.Fatalf("expected 5 journal files, got %d: %v", len(bytesA), keys(bytesA))
	}
	for name, ba := range bytesA {
		if !bytes.Equal(ba, bytesB[name]) {
			t.Fatalf("journal %s differs between identical runs", name)
		}
	}

	// Kill + restart: first half, shut down, recover, second half.
	dirC := t.TempDir()
	half := len(stream) / 2
	fc, err := New(hetFleetConfig(dirC))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, fc, stream[:half])
	mustShutdown(t, fc)

	fc2, err := New(hetFleetConfig(dirC))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Recovery must rebuild the placement prefix exactly.
	if got := fc2.Placements(); !reflect.DeepEqual(got, psA[:len(got)]) {
		t.Fatalf("recovered placement prefix differs:\ngot:  %+v\nwant: %+v", got, psA[:len(got)])
	}
	submitAll(t, fc2, stream[half:])
	psC := fc2.Placements()
	mustShutdown(t, fc2)

	if !reflect.DeepEqual(psA, psC) {
		t.Fatalf("restart run placements differ:\nuninterrupted: %+v\nrestarted:     %+v", psA, psC)
	}
	bytesC := journalBytes(t, dirC)
	for name, ba := range bytesA {
		if !bytes.Equal(ba, bytesC[name]) {
			t.Fatalf("journal %s differs after kill+restart (%d vs %d bytes)", name, len(ba), len(bytesC[name]))
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// repartFleetConfig is the minimal scenario where repartitioning beats
// first-fit: two identical nodes, two mix slots each.
func repartFleetConfig(firstFit, noRepart bool) Config {
	return Config{
		Nodes: []NodeSpec{
			{Name: "n0", GPU: config.Base()},
			{Name: "n1", GPU: config.Base()},
		},
		Scheme:        core.SchemeNone,
		Window:        20_000,
		MaxMixPerNode: 2,
		FastPath:      true,
		FirstFit:      firstFit,
		NoRepartition: noRepart,
	}
}

// repartStream fills node 0's mix slots with small jobs and node 1
// with a large one, so the final medium job fits nowhere outright —
// but migrating one small job to node 1 opens a slot.
func repartStream() []Request {
	return []Request{
		{Name: "a", Workload: "sgemm", GPUFraction: 0.1},
		{Name: "b", Workload: "sgemm", GPUFraction: 0.1},
		{Name: "c", Workload: "sgemm", GPUFraction: 0.9},
		{Name: "d", Workload: "sgemm", GPUFraction: 0.5},
	}
}

// TestRepartitionPlacesWhatFirstFitRejects is the issue's second
// acceptance scenario: at least one pending job is placed via the
// repartitioning search that the greedy baseline rejects.
func TestRepartitionPlacesWhatFirstFitRejects(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation in -short")
	}
	stream := repartStream()

	// Greedy baseline: first-fit, no repartitioning → job d is rejected.
	fb, err := New(repartFleetConfig(true, true))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, fb, stream)
	d, err := fb.Job("vjob-000003")
	if err != nil {
		t.Fatal(err)
	}
	if d.State != StateRejected {
		t.Fatalf("first-fit baseline: job d state = %s, want rejected", d.State)
	}
	if got := fb.Repartitions(); got != 0 {
		t.Fatalf("baseline repartitions = %d, want 0", got)
	}
	mustShutdown(t, fb)

	// Full scheduler: the repartition search migrates a small job and
	// places d.
	f, err := New(repartFleetConfig(false, false))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, f, stream)
	d, err = f.Job("vjob-000003")
	if err != nil {
		t.Fatal(err)
	}
	if d.State != StatePlaced {
		t.Fatalf("repartitioning scheduler: job d state = %s (%s), want placed", d.State, d.Error)
	}
	if got := f.Repartitions(); got != 1 {
		t.Fatalf("repartitions = %d, want 1", got)
	}
	var migrates, places int
	for _, p := range f.Placements() {
		switch p.Kind {
		case KindMigrate:
			migrates++
		case KindPlace:
			places++
		}
	}
	if migrates != 1 || places != 4 {
		t.Fatalf("placement kinds: %d migrates, %d places; want 1 and 4", migrates, places)
	}
	mustShutdown(t, f)
}

// TestSharesValidation covers the fractional request vocabulary.
func TestSharesValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want Shares
		ok   bool
	}{
		{"gpu_fraction", Request{GPUFraction: 0.5}, Shares{SM: 0.5, Mem: 0.5}, true},
		{"full device", Request{GPUFraction: 1}, Shares{SM: 1, Mem: 1}, true},
		{"vgpu both", Request{VGPUCores: 40, VGPUMemory: 60}, Shares{SM: 0.4, Mem: 0.6}, true},
		{"vgpu cores only", Request{VGPUCores: 25}, Shares{SM: 0.25}, true},
		{"vgpu memory only", Request{VGPUMemory: 75}, Shares{Mem: 0.75}, true},
		{"nothing set", Request{}, Shares{}, false},
		{"fraction and cores", Request{GPUFraction: 0.5, VGPUCores: 50}, Shares{}, false},
		{"fraction too big", Request{GPUFraction: 1.5}, Shares{}, false},
		{"negative fraction", Request{GPUFraction: -0.1}, Shares{}, false},
		{"cores over 100", Request{VGPUCores: 120}, Shares{}, false},
		{"negative memory", Request{VGPUMemory: -5}, Shares{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.req.shares()
			if tc.ok {
				if err != nil {
					t.Fatalf("shares(): %v", err)
				}
				if got != tc.want {
					t.Fatalf("shares() = %+v, want %+v", got, tc.want)
				}
				return
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("shares() err = %v, want ErrBadRequest", err)
			}
		})
	}
}

// TestSubmitValidation covers fleet-level request validation.
func TestSubmitValidation(t *testing.T) {
	f, err := New(Config{
		Nodes:  []NodeSpec{{GPU: config.Base()}},
		Scheme: core.SchemeRollover,
		Window: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, f)

	for _, tc := range []struct {
		name string
		req  Request
		want error
	}{
		{"missing workload", Request{GPUFraction: 0.5}, ErrBadRequest},
		{"no shares", Request{Workload: "sgemm"}, ErrBadRequest},
		{"bad goal", Request{Workload: "sgemm", GPUFraction: 0.5, Goal: goalOf(1.5)}, ErrBadRequest},
		{"scheme mismatch", Request{Workload: "sgemm", GPUFraction: 0.5, Scheme: "none"}, ErrBadRequest},
	} {
		if _, err := f.Submit(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: Submit err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := f.Job("vjob-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Job(unknown) err = %v, want ErrUnknownJob", err)
	}
	if _, err := f.Node("node-99"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Node(unknown) err = %v, want ErrUnknownNode", err)
	}
	if err := f.Release("vjob-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Release(unknown) err = %v, want ErrUnknownJob", err)
	}
}

// TestReleaseFreesCapacity shows eviction returns fractional capacity:
// a full-device job blocks a second one until it is released.
func TestReleaseFreesCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	f, err := New(Config{
		Nodes:         []NodeSpec{{GPU: config.Base()}},
		Scheme:        core.SchemeNone,
		Window:        20_000,
		MaxMixPerNode: 2,
		NoRepartition: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	j1, err := f.Submit(Request{Workload: "sgemm", GPUFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(ctx, j1.ID()); err != nil {
		t.Fatal(err)
	}

	j2, err := f.Submit(Request{Workload: "lbm", GPUFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(ctx, j2.ID()); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("full node: Wait err = %v, want ErrNoPlacement", err)
	}

	if err := f.Release(j1.ID()); err != nil {
		t.Fatalf("release: %v", err)
	}
	nv := f.Nodes()[0]
	if nv.UsedSM > capEps || nv.UsedMem > capEps {
		t.Fatalf("release did not free capacity: used %v/%v", nv.UsedSM, nv.UsedMem)
	}
	if err := f.Release(j1.ID()); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("double release err = %v, want ErrBadRequest", err)
	}

	j3, err := f.Submit(Request{Workload: "lbm", GPUFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.Wait(ctx, j3.ID())
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	if v.Node != "node-0" {
		t.Fatalf("after release: placed on %q, want node-0", v.Node)
	}
}

// TestJournalHeadersPinned pins, as literals, the header hashes of the
// journals `qosd -fleet base,base -fleet-journal DIR` writes with every
// other flag at its default: both node journals and placements.jnl.
// Journals written before must keep opening, so nothing hashed into a
// node or fleet binding may move.
func TestJournalHeadersPinned(t *testing.T) {
	dir := t.TempDir()
	f, err := New(Config{
		Nodes:            []NodeSpec{{Name: "base", GPU: config.Base()}, {Name: "base", GPU: config.Base()}},
		Scheme:           core.SchemeRollover,
		Window:           200_000,
		QueueDepth:       16,
		FastPath:         true,
		VerdictCacheSize: 4096,
		JournalDir:       dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustShutdown(t, f)
	for file, want := range map[string]string{
		"node-0.jnl":     "0a53695a7d34f3c39ef960b51f98529457c9383dd409e989895ed6bdc30263f3",
		"node-1.jnl":     "d7da8e10e01c7ce61c106fdf3d29cea64531c2d81b5f2bd23100bfda4c0c038a",
		"placements.jnl": "20c2de7e91a4e99f0a5fe6e65c83fcdc11e879df21712771973a5bb040577b52",
	} {
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := bytes.Cut(b, []byte("\n"))
		rec, err := journal.Decode(line)
		if err != nil || !rec.Header {
			t.Fatalf("%s: first line %q: %v", file, line, err)
		}
		if rec.Config != want {
			t.Errorf("%s header hash %s, want %s", file, rec.Config, want)
		}
	}
}

// TestFleetDrain verifies Submit and Release refuse work after
// Shutdown begins.
func TestFleetDrain(t *testing.T) {
	f, err := New(Config{Nodes: []NodeSpec{{GPU: config.Base()}}, Window: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	mustShutdown(t, f)
	if _, err := f.Submit(Request{Workload: "sgemm", GPUFraction: 0.5}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after shutdown err = %v, want ErrDraining", err)
	}
}

// openIn counts this process's descriptors open on files under dir, or
// returns -1 where /proc/self/fd does not list them.
func openIn(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestParallelRecoveryNamesLowestNode: node journals are recovered
// concurrently, yet a restart over two damaged ones fails the same way
// every time — naming the lower-index node, whichever goroutine failed
// first — and closes every journal it opened. Node 1 holds a decision
// record without a verdict, which fails its replay after its journal is
// open; node 3's journal belongs to another binding, which fails its open.
func TestParallelRecoveryNamesLowestNode(t *testing.T) {
	dir := t.TempDir()
	f, err := New(hetFleetConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustShutdown(t, f)
	path := filepath.Join(dir, "node-1.jnl")
	j, err := journal.Open(path, headerHash(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(decisionStage, 0, NodeDecision{JobID: "vjob-000000"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = journal.Create(filepath.Join(dir, "node-3.jnl"), "another binding")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	const want = "node node-1: decision 0: missing verdict"
	for i := 0; i < 20; i++ {
		f, err := New(hetFleetConfig(dir))
		if err == nil {
			f.Close()
			t.Fatalf("restart %d recovered a fleet whose node journals 1 and 3 are damaged", i)
		}
		if err.Error() != want {
			t.Fatalf("restart %d: %v; want %q", i, err, want)
		}
		if n := openIn(t, dir); n > 0 {
			t.Fatalf("restart %d left %d journals open", i, n)
		}
	}
}
