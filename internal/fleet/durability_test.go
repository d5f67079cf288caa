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
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/schema"
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

// liveJournals reads f's journal files in dir as they stand.
func liveJournals(t *testing.T, dir string, f *Fleet) map[string]flushed {
	t.Helper()
	jnls := map[string]*journal.Journal{"placements.jnl": f.pj}
	for _, n := range f.nodes {
		jnls[n.id+".jnl"] = n.jnl
	}
	out := make(map[string]flushed)
	for name, j := range jnls {
		b, err := os.ReadFile(filepath.Join(dir, name))
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
	for _, seed := range []uint64{1, 2, 3, 4} {
		// The name keeps first_fit=false, what every placement journal
		// header records of the one policy.
		scenarios = append(scenarios, scenario{
			name: fmt.Sprintf("firstFit=false seed %d", seed),
			cfg:  func(dir string) Config { return askFleet(true, dir) },
			ops:  placeStream(seed, 24),
		})
	}
	// Under SchemeNone every question admits, so the repartition is a
	// matter of capacity alone and tiny devices make it cheap.
	repart := scenario{name: "repartition", cfg: func(dir string) Config {
		c := repartFleetConfig()
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

	var migrates, keyRebuilds atomic.Int64
	t.Run("streams", func(t *testing.T) {
		for _, sc := range scenarios {
			sc := sc
			t.Run(sc.name, func(t *testing.T) {
				t.Parallel()
				m, k := crashAfterEveryAnswer(t, sc.cfg, sc.ops)
				migrates.Add(int64(m))
				keyRebuilds.Add(int64(k))
			})
		}
	})
	if migrates.Load() == 0 {
		t.Fatal("nothing migrated: the test no longer covers carried migrate records")
	}
	if keyRebuilds.Load() == 0 {
		t.Fatal("no restart rebuilt a cache hit from its key: the test no longer covers a lost node record behind a slim place record")
	}
}

// crashAfterEveryAnswer is one scenario of TestRestartFromFlushedBytes. It
// returns how many jobs the stream migrated, and how many restarts on a
// cut copy rebuilt a node record journaled by its key alone, which only a
// slim place or migrate record carries.
func crashAfterEveryAnswer(t *testing.T, cfg func(dir string) Config, ops []placeOp) (migrates, keyRebuilds int) {
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
		want, files := fleetJSON(live.Placements(), live), liveJournals(t, liveDir, live)
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
			if !torn && keyOnlyTail(img, wantLogs) {
				keyRebuilds++
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
	checkCarried(t, live, cfg(liveDir))
	if finished == "" {
		t.Fatal("no torn crash copy in the last quarter of the stream kept a record past a lost one")
	}
	if got, want := journalBytes(t, filepath.Join(root, finished)), journalBytes(t, liveDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("the stream finished after a restart on the torn copy after %s wrote different journals", finished)
	}
	return migrates, keyRebuilds
}

// keyOnlyTail reports whether a restart on the cut copy img, which
// recovered the journals want, rebuilt a node record without a verdict:
// a record of want's node logs past img's that carries none.
func keyOnlyTail(img map[string][]byte, want map[string]string) bool {
	for name, log := range want {
		if name == "placements.jnl" {
			continue
		}
		for _, line := range strings.SplitAfter(log[len(img[name]):], "\n") {
			if line != "" && !strings.Contains(line, `"verdict":`) {
				return true
			}
		}
	}
	return false
}

// headerHash reads the configuration hash from a journal's header line.
func headerHash(t testing.TB, path string) string {
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
// (with every verdict) recovers as it always did. Node journals whose
// every record carries its verdict, as all did before cache hits were
// journaled by key alone, and a placement journal with every verdict and
// full releases, as all were before placement records went slim, recover
// to the same fleet and are left as they are. A key-only node record
// whose key the replayed cache lacks fails New, naming the node and the
// record; so does a slim place record whose decision is not a replayed
// admit of its job, naming the placement and the node.
func TestRecoveryRebuildsOrRefuses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation in -short")
	}
	base := t.TempDir()
	f, err := New(askFleet(true, base))
	if err != nil {
		t.Fatal(err)
	}
	var placed []string
	for _, op := range placeStream(1, 24) {
		applyOp(t, f, op, &placed)
	}
	mustShutdown(t, f)
	clean, cleanOld := fleetJSON(f.Placements(), f), fleetJSON(withoutDecisions(f.Placements()), f)
	placementsPath := func(dir string) string { return filepath.Join(dir, "placements.jnl") }

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

	// The first cache hit, journaled by its key alone, and a node
	// journal as a fleet that copied every verdict would have written it.
	hitNode, hitAt := -1, -1
	for i := range f.nodes {
		_, keyOnly := replayedRecords(t, askFleet(true, base), i)
		for k, ko := range keyOnly {
			if ko && hitNode < 0 {
				hitNode, hitAt = i, k
			}
		}
	}
	if hitNode < 0 {
		t.Fatal("the fixture stream no longer journals a cache hit")
	}

	// The first slim place record on a node that rejected before it, and
	// that rejection.
	slimAt, notAdmit := -1, -1
	for _, p := range f.Placements() {
		if p.Kind != KindPlace || p.Verdict.Tier != schema.TierCache || slimAt >= 0 {
			continue
		}
		recs, _ := replayedRecords(t, askFleet(true, base), slices.IndexFunc(f.nodes, func(n *node) bool { return n.id == p.Node }))
		for k := 0; k < *p.Decision; k++ {
			if !recs[k].Verdict.IsAdmitted() {
				slimAt, notAdmit = p.Index, k
				break
			}
		}
	}
	if slimAt < 0 {
		t.Fatal("the fixture stream no longer places a cache-tier admit on a node that rejected before")
	}
	slim := f.Placements()[slimAt]

	// The place or migrate record that carries the first record of a
	// node's carried tail, to be lost and rebuilt from a forged reject.
	var lost Placement
	for _, n := range f.nodes {
		if at, ok := tails[n.id]; ok && lost.JobID == "" {
			for _, p := range f.Placements() {
				if p.Node == n.id && p.Decision != nil && *p.Decision == at {
					lost = p
				}
			}
		}
	}
	if lost.JobID == "" {
		t.Fatal("the fixture stream no longer places a job by a record of a node's carried tail")
	}

	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   string // New's error must contain it; "" = recovers the run's fleet
		old    bool   // the placement records carry no decision
		asRead bool   // recovery leaves the damaged journals as they are
	}{
		{name: "clean"},
		{name: "node records with every verdict", damage: func(t *testing.T, dir string) {
			for i, n := range f.nodes {
				recs, _ := replayedRecords(t, askFleet(true, dir), i)
				rewriteNodeJournal(t, dir, n.id, recs)
			}
		}, asRead: true},
		{name: "cache hit not in the cache", damage: func(t *testing.T, dir string) {
			recs, _ := replayedRecords(t, askFleet(true, dir), hitNode)
			recs = recs[:hitAt+1]
			recs[hitAt].Verdict = nil
			recs[hitAt].Candidate.GoalFrac = 0.123 // a mix no record decided
			rewriteNodeJournal(t, dir, f.nodes[hitNode].id, recs)
		}, want: fmt.Sprintf("node %s: decision %d: cache hit sig:", f.nodes[hitNode].id, hitAt)},
		{name: "carried tail records lost", damage: func(t *testing.T, dir string) {
			for node, idx := range tails {
				cutNodeJournal(t, dir, node, idx)
			}
		}},
		{name: "uncarried record lost", damage: func(t *testing.T, dir string) {
			cutNodeJournal(t, dir, gapNode, gapAt)
		}, want: fmt.Sprintf("node %s: placement carries decision %d, but the node journal recovers only %d", gapNode, gapNext, gapAt)},
		{name: "legacy placement records", damage: func(t *testing.T, dir string) {
			// Every place and migrate record with its verdict and every
			// release with its request and shares, as the fleet wrote them
			// before records went slim.
			rewriteJournal(t, placementsPath(dir), placementStage, f.Placements())
		}, asRead: true},
		{name: "slim record carries no admit", damage: func(t *testing.T, dir string) {
			recs := placementRecords(t, dir)
			recs[slimAt].Decision = &notAdmit
			rewriteJournal(t, placementsPath(dir), placementStage, recs)
		}, want: fmt.Sprintf("fleet: placement %d: node %s: decision %d is not a replayed admit of job %s", slimAt, slim.Node, notAdmit, slim.JobID)},
		{name: "lost carried record rebuilds a reject", damage: func(t *testing.T, dir string) {
			recs := placementRecords(t, dir)
			v := *lost.Verdict
			v.Decision, v.Tier = schema.DecisionReject, schema.TierSim
			recs[lost.Index].Verdict = &v
			rewriteJournal(t, placementsPath(dir), placementStage, recs)
			cutNodeJournal(t, dir, lost.Node, *lost.Decision)
		}, want: fmt.Sprintf("fleet: placement %d: node %s: rebuild decision %d: it rejects job %s", lost.Index, lost.Node, *lost.Decision, lost.JobID)},
		{name: "placement records without decisions", damage: func(t *testing.T, dir string) {
			// A full-verdict log: the slim records a fleet writes today
			// need their decision indexes.
			rewriteJournal(t, placementsPath(dir), placementStage, withoutDecisions(f.Placements()))
		}, old: true},
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
			wantLogs := logs(t, base)
			if tc.asRead {
				wantLogs = logs(t, dir)
			}
			f, err := New(askFleet(true, dir))
			if tc.want != "" {
				if err == nil {
					f.Close()
					t.Fatalf("New recovered a damaged fleet; want an error containing %q", tc.want)
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
			if got := logs(t, dir); !tc.old && !reflect.DeepEqual(got, wantLogs) {
				t.Fatal("recovered journals differ from the run's")
			}
		})
	}
}

// rewriteJournal replaces the journal at path with recs, record k at
// index k of stage, under the same header.
func rewriteJournal[T any](t *testing.T, path, stage string, recs []T) {
	t.Helper()
	j, err := journal.Create(path, headerHash(t, path))
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range recs {
		if err := j.Append(stage, k, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// rewriteNodeJournal replaces node's decision journal in dir with recs.
func rewriteNodeJournal(t *testing.T, dir, node string, recs []NodeDecision) {
	t.Helper()
	rewriteJournal(t, filepath.Join(dir, node+".jnl"), decisionStage, recs)
}
