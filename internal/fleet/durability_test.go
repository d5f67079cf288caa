package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// applyOp runs one step of a place/release stream on f and waits for its
// answer, keeping placed (the ids a release picks from) current. A
// release with nothing placed is skipped: it reports false.
func applyOp(t *testing.T, f *Fleet, op placeOp, placed *[]string) bool {
	t.Helper()
	if op.req.Workload == "" {
		if len(*placed) == 0 {
			return false
		}
		k := op.pick % len(*placed)
		id := (*placed)[k]
		*placed = append((*placed)[:k:k], (*placed)[k+1:]...)
		if err := f.Release(id); err != nil {
			t.Fatalf("release %s: %v", id, err)
		}
		return true
	}
	j, err := f.Submit(op.req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v, err := f.Wait(ctx, j.ID())
	if err != nil && !errors.Is(err, ErrNoPlacement) {
		t.Fatal(err)
	}
	if v.State == StatePlaced {
		*placed = append(*placed, v.ID)
	}
	return true
}

// flushed is one live journal file: its size, its log (the file without
// its pad) and where the flushed prefix of that log ends.
type flushed struct {
	size   int
	log    []byte
	synced int
}

// liveJournals reads f's journal files as they stand.
func liveJournals(t *testing.T, f *Fleet) map[string]flushed {
	t.Helper()
	jnls := map[string]*journal.Journal{"placements.jnl": f.pj}
	for _, n := range f.nodes {
		jnls[n.id+".jnl"] = n.jnl
	}
	out := make(map[string]flushed)
	for name, j := range jnls {
		b, err := os.ReadFile(j.Path())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = flushed{size: len(b), log: []byte(logOf(b)), synced: int(j.Synced())}
	}
	return out
}

// crashImage is what a crash could leave of the live journals: every
// file cut where its flushed prefix ends or, torn, whole except for its
// first unflushed record, zeroed, as a writeback that reached the disk
// for later records and not for that one. It reports how many torn files
// kept a record past the lost one.
func crashImage(live map[string]flushed, torn bool) (files map[string][]byte, kept int) {
	files = make(map[string][]byte)
	for name, lf := range live {
		b := lf.log[:lf.synced]
		if torn {
			b = append([]byte(nil), lf.log...)
			if lf.synced < len(lf.log) {
				end := lf.synced + bytes.IndexByte(lf.log[lf.synced:], '\n') + 1
				copy(b[lf.synced:end], make([]byte, end-lf.synced))
				if end < len(lf.log) {
					kept++
				}
			}
			b = append(b, make([]byte, lf.size-len(b))...)
		}
		files[name] = b
	}
	return files, kept
}

// logOf is a journal file without its pad. Only a clean file is cut
// right: one whose first NUL starts the pad.
func logOf(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// logs reads every journal in dir without its pad.
func logs(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for name, b := range journalBytes(t, dir) {
		out[name] = logOf(b)
	}
	return out
}

// fleetJSON renders what a restart must reproduce: placements, nodes and
// jobs.
func fleetJSON(ps []Placement, f *Fleet) string {
	b, _ := json.Marshal(struct {
		P []Placement
		N []NodeView
		J []JobView
	}{ps, f.Nodes(), f.Jobs()})
	return string(b)
}

// TestRestartFromFlushedBytes: every answered arrival survives a crash
// that keeps only the bytes flushed before it. After each answer of the
// seeded place/release streams (both policies, cache on) and of the
// repartition scenario, the journal directory is copied as a crash could
// leave it, each file cut where its flushed prefix ends, and again with
// the first unflushed node record zeroed while later ones reach the disk.
// A fleet restarted on either copy must show the live fleet's placements,
// nodes and jobs, and its journals must read as the live ones. From the
// first torn copy in the stream's last quarter that kept a record past
// the zeroed one, the stream is then finished on the restarted fleet,
// which must end on journals byte-identical to the uninterrupted run's.
// The scenarios run in parallel: the streams' own simulations are most
// of the time.
func TestRestartFromFlushedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation in -short")
	}
	type scenario struct {
		name string
		cfg  func(dir string) Config
		ops  []placeOp
	}
	var scenarios []scenario
	for _, firstFit := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3, 4} {
			firstFit := firstFit
			scenarios = append(scenarios, scenario{
				name: fmt.Sprintf("firstFit=%v seed %d", firstFit, seed),
				cfg:  func(dir string) Config { return askFleet(firstFit, true, dir) },
				ops:  placeStream(seed, 24),
			})
		}
	}
	// Under SchemeNone every question admits, so the repartition is a
	// matter of capacity alone and tiny devices make it cheap.
	repart := scenario{name: "repartition", cfg: func(dir string) Config {
		c := repartFleetConfig(false, false)
		for i := range c.Nodes {
			c.Nodes[i].GPU = tinyGPU(2)
		}
		c.Window, c.JournalDir = 10_000, dir
		return c
	}}
	for _, r := range repartStream() {
		repart.ops = append(repart.ops, placeOp{req: r})
	}
	scenarios = append(scenarios, repart)

	var migrates atomic.Int64
	t.Run("streams", func(t *testing.T) {
		for _, sc := range scenarios {
			sc := sc
			t.Run(sc.name, func(t *testing.T) {
				t.Parallel()
				migrates.Add(int64(crashAfterEveryAnswer(t, sc.cfg, sc.ops)))
			})
		}
	})
	if migrates.Load() == 0 {
		t.Fatal("nothing migrated: the test no longer covers carried migrate records")
	}
}

// crashAfterEveryAnswer is one scenario of TestRestartFromFlushedBytes. It
// returns how many jobs the stream migrated.
func crashAfterEveryAnswer(t *testing.T, cfg func(dir string) Config, ops []placeOp) (migrates int) {
	root := t.TempDir()
	liveDir := filepath.Join(root, "live")
	live, err := New(cfg(liveDir))
	if err != nil {
		t.Fatal(err)
	}
	var placed []string
	finished := ""
	for i, op := range ops {
		if !applyOp(t, live, op, &placed) {
			continue
		}
		want, files := fleetJSON(live.Placements(), live), liveJournals(t, live)
		wantLogs := make(map[string]string)
		for name, lf := range files {
			wantLogs[name] = string(lf.log)
		}
		for _, torn := range []bool{false, true} {
			img, kept := crashImage(files, torn)
			if torn && kept == 0 {
				continue // no earlier unflushed record to lose: the cut copy covered it
			}
			dir := filepath.Join(root, "crash")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, b := range img {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("crash after op %d (torn %v)", i, torn)
			f, err := New(cfg(dir))
			if err != nil {
				t.Fatalf("%s: restart: %v", what, err)
			}
			if got := fleetJSON(f.Placements(), f); got != want {
				t.Fatalf("%s: restart differs from the live fleet:\ngot:  %s\nwant: %s", what, got, want)
			}
			if got := logs(t, dir); !reflect.DeepEqual(got, wantLogs) {
				t.Fatalf("%s: recovered journals differ from the live ones", what)
			}
			finish := torn && finished == "" && i >= 3*len(ops)/4
			if finish {
				rest := append([]string(nil), placed...)
				for _, op := range ops[i+1:] {
					applyOp(t, f, op, &rest)
				}
			}
			mustShutdown(t, f)
			if finish {
				finished = fmt.Sprintf("op%d", i)
				if err := os.Rename(dir, filepath.Join(root, finished)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, p := range live.Placements() {
		if p.Kind == KindMigrate {
			migrates++
		}
	}
	mustShutdown(t, live)
	checkCarried(t, live)
	if finished == "" {
		t.Fatal("no torn crash copy in the last quarter of the stream kept a record past a lost one")
	}
	if got, want := journalBytes(t, filepath.Join(root, finished)), journalBytes(t, liveDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("the stream finished after a restart on the torn copy after %s wrote different journals", finished)
	}
	return migrates
}

// headerHash reads the configuration hash from a journal's header line.
func headerHash(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	rec, err := journal.Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Config
}

// cutNodeJournal cuts a node journal where its decision idx begins, as a
// crash that lost that record and every later one.
func cutNodeJournal(t *testing.T, dir, node string, idx int) {
	t.Helper()
	path := filepath.Join(dir, node+".jnl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := 0
	for i := 0; i <= idx; i++ { // the header, then decisions 0 .. idx-1
		end += bytes.IndexByte(b[end:], '\n') + 1
	}
	if err := os.WriteFile(path, b[:end], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRebuildsOrRefuses: a node journal that lost decision
// records the placement journal carries gets them back, byte for byte;
// one that lost a record no placement carries cannot be rebuilt, and New
// names the node and the decision instead of recovering a different
// cache; a placement journal written before records carried decisions
// recovers as it always did.
func TestRecoveryRebuildsOrRefuses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation in -short")
	}
	base := t.TempDir()
	f, err := New(askFleet(false, true, base))
	if err != nil {
		t.Fatal(err)
	}
	var placed []string
	for _, op := range placeStream(1, 24) {
		applyOp(t, f, op, &placed)
	}
	mustShutdown(t, f)
	clean, cleanOld := fleetJSON(f.Placements(), f), fleetJSON(withoutDecisions(f.Placements()), f)

	// Which records each node wrote, and which of them a placement carries.
	carried := make(map[string]map[int]bool)
	for _, p := range f.Placements() {
		if p.Decision != nil {
			if carried[p.Node] == nil {
				carried[p.Node] = make(map[int]bool)
			}
			carried[p.Node][*p.Decision] = true
		}
	}
	tails := make(map[string]int) // node -> first record of its all-carried tail
	gapNode, gapAt, gapNext := "", -1, -1
	for _, n := range f.nodes {
		count := n.view().Decisions
		start := count
		for start > 0 && carried[n.id][start-1] {
			start--
		}
		if start < count {
			tails[n.id] = start
		}
		for i := 0; i < count && gapNode == ""; i++ {
			if carried[n.id][i] {
				continue
			}
			for k := i + 1; k < count; k++ {
				if carried[n.id][k] {
					gapNode, gapAt, gapNext = n.id, i, k
					break
				}
			}
		}
	}
	if len(tails) == 0 || gapNode == "" {
		t.Fatalf("the fixture stream no longer ends a node journal on carried records (%v) or carries a record after an uncarried one (%q)", tails, gapNode)
	}

	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   string // New's error must contain it; "" = recovers the run's fleet
		old    bool   // the placement records carry no decision
	}{
		{name: "clean"},
		{name: "carried tail records lost", damage: func(t *testing.T, dir string) {
			for node, idx := range tails {
				cutNodeJournal(t, dir, node, idx)
			}
		}},
		{name: "uncarried record lost", damage: func(t *testing.T, dir string) {
			cutNodeJournal(t, dir, gapNode, gapAt)
		}, want: fmt.Sprintf("node %s: placement carries decision %d, but the node journal recovers only %d", gapNode, gapNext, gapAt)},
		{name: "placement records without decisions", damage: stripDecisions, old: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range journalBytes(t, base) {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			f, err := New(askFleet(false, true, dir))
			if tc.want != "" {
				if err == nil {
					f.Close()
					t.Fatalf("New recovered a fleet that lost an uncarried decision; want an error containing %q", tc.want)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("New: %v; want an error containing %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := clean
			if tc.old {
				want = cleanOld
			}
			if got := fleetJSON(f.Placements(), f); got != want {
				t.Fatalf("recovered fleet differs:\ngot:  %s\nwant: %s", got, want)
			}
			mustShutdown(t, f)
			if got := logs(t, dir); !tc.old && !reflect.DeepEqual(got, logs(t, base)) {
				t.Fatal("recovered journals differ from the run's")
			}
		})
	}
}

// stripDecisions rewrites the placement journal in dir as a fleet that
// did not carry decision indexes would have written it.
func stripDecisions(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "placements.jnl")
	hash := headerHash(t, path)
	old, err := journal.Open(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	var ps []Placement
	err = old.Each(placementStage, func(_ int, raw json.RawMessage) error {
		var p Placement
		err := json.Unmarshal(raw, &p)
		ps = append(ps, p)
		return err
	})
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Create(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range withoutDecisions(ps) {
		if err := j.Append(placementStage, p.Index, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
