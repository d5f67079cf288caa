package exp

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// rowGrid is a small pair grid whose third goal is Goals()[2], the
// accumulated 0.6000000000000001 that no "%.2f" text parses back to.
var rowGrid = Grid{Pairs: faultPairs[:2], Goals: Goals()[:3]}

// syntheticCases fills every case of g with a made-up result (nothing
// simulates) whose floats need all their digits: QoS kernels reach their
// goal on even cases.
func syntheticCases(g Grid, scheme core.Scheme) []Case {
	c := make([]Case, g.Len())
	for i := 0; i < g.Len(); i++ {
		res := &core.Result{Scheme: scheme, AllReached: true}
		res.Power.InstrPerWatt = 1e10 / 3 * float64(i+1)
		for k, spec := range g.specs(i) {
			kr := core.KernelResult{Name: spec.Workload, IPC: math.Pi * float64(k+1), NormThroughput: 1 / float64(i+k+3)}
			if spec.GoalFrac > 0 {
				kr.IsQoS, kr.GoalIPC = true, spec.GoalFrac*100/7
				kr.GoalRatio = kr.IPC / kr.GoalIPC
				kr.Reached = i%2 == 0
				res.AllReached = res.AllReached && kr.Reached
			}
			res.Kernels = append(res.Kernels, kr)
		}
		c[i] = g.Case(i, res)
	}
	return c
}

// TestRowsRoundTrip encodes pair and trio cases and decodes them back to
// the same cases, and the same bytes.
func TestRowsRoundTrip(t *testing.T) {
	trios := Grid{Trios: []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}}, Goals: TwoQoSGoals()[:2], NQoS: 2}
	for _, g := range []Grid{rowGrid, trios} {
		want := syntheticCases(g, core.SchemeRollover)
		data := g.encodeRows(want)
		got, err := g.decodeRows("rows.csv", data, core.SchemeRollover)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s grid: decoded cases differ from the encoded ones", g.kind())
		}
		if !bytes.Equal(g.encodeRows(got), data) {
			t.Fatalf("%s grid: re-encoding changed the bytes", g.kind())
		}
	}
}

// TestRowsRejectUntrusted damages a valid row file in each way a file
// from disk can be wrong and requires an error naming the file and the
// line at fault.
func TestRowsRejectUntrusted(t *testing.T) {
	data := string(rowGrid.encodeRows(syntheticCases(rowGrid, core.SchemeRollover)))
	lines := strings.SplitAfter(data, "\n")[:rowGrid.Len()+1] // header + one line per case
	join := func(ls ...string) string { return strings.Join(ls, "") }
	goal := formatFloat(Goals()[2])
	for name, tc := range map[string]struct {
		data, want string
	}{
		"short":            {join(lines[:4]...), "rows.csv:5: 3 rows, the grid has 6 cases"},
		"extra row":        {data + lines[1], "rows.csv:8: 7 rows, the grid has 6 cases"},
		"duplicated row":   {join(append(lines[:3:3], lines[2:6]...)...), "rows.csv:4: row is"},
		"swapped rows":     {join(lines[0], lines[2], lines[1], join(lines[3:]...)), "rows.csv:2: row is"},
		"no final newline": {strings.TrimSuffix(data, "\n"), "rows.csv:7: truncated"},
		"empty":            {"", "rows.csv:1: truncated"},
		"other header":     {strings.Replace(data, "reached", "met", 1), "rows.csv:1: header"},
		"rounded goal":     {strings.Replace(data, ","+goal+",", ",0.60,", 1), "rows.csv:4: row is"},
		"other scheme":     {strings.Replace(data, "rollover,", "spart,", 1), "rows.csv:2: row is"},
		"padded float":     {strings.Replace(data, ",3.141592653589793,", ",3.1415926535897930,", 1), `column qos_ipc: "3.1415926535897930"`},
		"bad bool":         {strings.Replace(data, ",true,", ",1,", 1), `column reached: "1"`},
		"missing field":    {strings.Replace(data, ",3.141592653589793,", ",", 1), "rows.csv:2: 16 fields, want 17"},
		"lying reached":    {strings.Replace(data, ",0.55,false,", ",0.55,true,", 1), "rows.csv:3: reached is true"},
		"goal on nonqos":   {strings.Replace(data, ",0,0,0.25\n", ",1,0,0.25\n", 1), "rows.csv:2: kernel nonqos: goal_ipc 1"},
	} {
		_, err := rowGrid.decodeRows("rows.csv", []byte(tc.data), core.SchemeRollover)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", name, err, tc.want)
		}
	}
}

// TestCollectReadsAndWritesRows: a study with a row store simulates a
// sweep once and writes its file, a second Collect reads it back under a
// canceled context (it would fail on any simulation), and a damaged file
// fails the call, naming itself, instead of being simulated over.
func TestCollectReadsAndWritesRows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	st := Study{Runner: testRunner(t, 2), Pairs: faultPairs[:2], Goals: []float64{0.5}, Rows: t.TempDir()}
	sweeps := []Sweep{pairsOf(core.SchemeRollover)}
	first, err := st.Collect(context.Background(), sweeps)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Report == nil || first[0].File == "" {
		t.Fatalf("first collect: report %v, file %q; want a simulated sweep and its written file", first[0].Report, first[0].File)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	again, err := st.Collect(canceled, sweeps)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Report != nil || again[0].File != first[0].File || !reflect.DeepEqual(again[0].Cases, trimmed(first[0]).Cases) {
		t.Fatal("second collect did not read back the first one's cases from its file")
	}
	data, err := os.ReadFile(first[0].File)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first[0].File, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Collect(context.Background(), sweeps); err == nil || !strings.Contains(err.Error(), filepath.Base(first[0].File)+":3") {
		t.Fatalf("damaged file: err = %v, want it to name the file's last line", err)
	}
}

// trimmed drops what a row does not carry from a sweep's simulated
// cases: the results' cycle counts, isolated IPCs and statistics, which
// no reducer reads.
func trimmed(row SweepRow) SweepRow {
	trim := func(r *core.Result) *core.Result {
		res := &core.Result{Scheme: r.Scheme, AllReached: r.AllReached}
		res.Power.InstrPerWatt = r.Power.InstrPerWatt
		for _, k := range r.Kernels {
			res.Kernels = append(res.Kernels, core.KernelResult{Name: k.Name, IsQoS: k.IsQoS, GoalIPC: k.GoalIPC,
				IPC: k.IPC, Reached: k.Reached, NormThroughput: k.NormThroughput, GoalRatio: k.GoalRatio})
		}
		return res
	}
	row.Cases = slices.Clone(row.Cases)
	for i := range row.Cases {
		row.Cases[i].Res = trim(row.Cases[i].Res)
	}
	return row
}

// FuzzDecodeRows feeds arbitrary bytes to the row decoder as a file of
// a pair grid and of a 2-QoS trio grid: it must not panic, and whatever
// it accepts must re-encode to the same bytes.
func FuzzDecodeRows(f *testing.F) {
	trios := Grid{Trios: []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}}, Goals: TwoQoSGoals()[:1], NQoS: 2}
	grids := []Grid{rowGrid, trios}
	for _, g := range grids {
		f.Add(g.encodeRows(syntheticCases(g, core.SchemeRollover)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range grids {
			c, err := g.decodeRows("fuzz.csv", data, core.SchemeRollover)
			if err != nil {
				continue
			}
			if again := g.encodeRows(c); !bytes.Equal(again, data) {
				t.Fatalf("accepted %q but re-encodes to %q", data, again)
			}
		}
	})
}
