package benchgate

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTable01Parameters-4         	     100	    120000 ns/op
BenchmarkSimulatorCycles-4           	       5	 160000000 ns/op	    312500 cycles/s	  606844 B/op	    2024 allocs/op
BenchmarkAdmission-4                 	    1000	      8000 ns/op	      5200 p50-ns	      9800 speedup-x	    4402 B/op	      43 allocs/op
BenchmarkStreamAdmission-4           	   20000	     61000 ns/op	     16300 decisions/s	   10240 B/op	      98 allocs/op
BenchmarkDistSweepOverhead-4         	       5	 510000000 ns/op	        23.04 cases/s	         4.2 overhead-pct	 7712544 B/op	   12202 allocs/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Name: "Admission", Kind: KindLatency, P50Ns: 5200, SpeedupX: 9800, AllocsPerOp: 43, NsPerOp: 8000},
		{Name: "DistSweepOverhead", Kind: KindOverhead, OverheadPct: 4.2, AllocsPerOp: 12202, NsPerOp: 510000000},
		{Name: "SimulatorCycles", Kind: KindThroughput, CyclesPerSec: 312500, AllocsPerOp: 2024, NsPerOp: 160000000},
		{Name: "StreamAdmission", Kind: KindThroughput, OpsPerSec: 16300, AllocsPerOp: 98, NsPerOp: 61000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse = %+v, want %+v", got, want)
	}
}

func TestParseRejectsMissingBenchmem(t *testing.T) {
	in := "BenchmarkSimulatorCycles-4 5 160000000 ns/op 312500 cycles/s\n"
	if _, err := Parse(strings.NewReader(in)); err == nil {
		t.Fatal("Parse accepted a cycles/s benchmark without allocs/op")
	}
}

func TestNormalize(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSimulatorCycles-16": "SimulatorCycles",
		"BenchmarkSimulatorCycles":    "SimulatorCycles",
		"BenchmarkFoo-bar":            "Foo-bar", // non-numeric suffix kept
	} {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func baseFile() *File {
	return &File{
		Schema:       Schema,
		Go:           "go1.24",
		WindowCycles: 50_000,
		Benchmarks: []Entry{
			{Name: "Admission", Kind: KindLatency, P50Ns: 5000, SpeedupX: 9000, AllocsPerOp: 43, NsPerOp: 8000},
			{Name: "SimulatorCycles", Kind: KindThroughput, CyclesPerSec: 300_000, AllocsPerOp: 2000, NsPerOp: 1e8},
			{Name: "DistSweepOverhead", Kind: KindOverhead, OverheadPct: 3.0, AllocsPerOp: 12000, NsPerOp: 5e8},
			{Name: "StreamAdmission", Kind: KindThroughput, OpsPerSec: 15_000, AllocsPerOp: 100, NsPerOp: 65000},
		},
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name       string
		mutate     func(*File)
		violations int
	}{
		{"identical", func(f *File) {}, 0},
		{"faster is fine", func(f *File) { f.Benchmarks[1].CyclesPerSec = 900_000 }, 0},
		{"within tolerance", func(f *File) { f.Benchmarks[1].CyclesPerSec = 275_000 }, 0},
		{"throughput regression", func(f *File) { f.Benchmarks[1].CyclesPerSec = 265_000 }, 1},
		{"alloc jitter within slack", func(f *File) { f.Benchmarks[1].AllocsPerOp = 2080 }, 0},
		{"alloc regression", func(f *File) { f.Benchmarks[1].AllocsPerOp = 2500 }, 1},
		{"both regress", func(f *File) {
			f.Benchmarks[1].CyclesPerSec = 100_000
			f.Benchmarks[1].AllocsPerOp = 9984
		}, 2},
		{"benchmark vanished", func(f *File) { f.Benchmarks = f.Benchmarks[:2] }, 2},
		// Ops-throughput entries (decisions/s) gate like cycles/s.
		{"ops faster is fine", func(f *File) { f.Benchmarks[3].OpsPerSec = 40_000 }, 0},
		{"ops within tolerance", func(f *File) { f.Benchmarks[3].OpsPerSec = 13_700 }, 0},
		{"ops regression", func(f *File) { f.Benchmarks[3].OpsPerSec = 13_000 }, 1},
		{"ops alloc regression", func(f *File) { f.Benchmarks[3].AllocsPerOp = 200 }, 1},
		// Latency entries: p50 is gated against a ceiling, speedup
		// against the absolute MinSpeedupX floor; allocs are not gated.
		{"lower latency is fine", func(f *File) { f.Benchmarks[0].P50Ns = 900 }, 0},
		{"latency within tolerance", func(f *File) { f.Benchmarks[0].P50Ns = 7400 }, 0},
		{"latency regression", func(f *File) { f.Benchmarks[0].P50Ns = 7600 }, 1},
		{"latency allocs not gated", func(f *File) { f.Benchmarks[0].AllocsPerOp = 9000 }, 0},
		{"speedup below floor", func(f *File) { f.Benchmarks[0].SpeedupX = 49 }, 1},
		{"speedup above floor but below baseline", func(f *File) { f.Benchmarks[0].SpeedupX = 51 }, 0},
		{"latency and speedup regress", func(f *File) {
			f.Benchmarks[0].P50Ns = 1e6
			f.Benchmarks[0].SpeedupX = 2
		}, 2},
		// Overhead entries: gated against the absolute MaxOverheadPct
		// ceiling only; the baseline value and allocs are informational.
		{"overhead below ceiling", func(f *File) { f.Benchmarks[2].OverheadPct = 4.9 }, 0},
		{"overhead above ceiling", func(f *File) { f.Benchmarks[2].OverheadPct = 5.1 }, 1},
		{"zero overhead is fine", func(f *File) { f.Benchmarks[2].OverheadPct = 0 }, 0},
		{"overhead allocs not gated", func(f *File) { f.Benchmarks[2].AllocsPerOp = 90_000 }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := baseFile()
			tc.mutate(cur)
			bad := Compare(baseFile(), cur, 0.10, 0.50)
			if len(bad) != tc.violations {
				t.Fatalf("Compare found %d violations %v, want %d", len(bad), bad, tc.violations)
			}
		})
	}
}

func TestApplyHandicapTripsGate(t *testing.T) {
	cur := baseFile()
	ApplyHandicap(cur, 0.15)
	// Both throughput entries (cycles/s and decisions/s) must trip.
	if bad := Compare(baseFile(), cur, 0.10, 0.50); len(bad) != 2 {
		t.Fatalf("15%% handicap against a 10%% tolerance produced %v, want 2 violations", bad)
	}
	unhit := baseFile()
	ApplyHandicap(unhit, 0)
	if !reflect.DeepEqual(unhit, baseFile()) {
		t.Fatal("zero handicap mutated the file")
	}
}

// TestApplyLatencyHandicapTripsGate proves the latency tripwire: a
// synthetic p50 inflation beyond the tolerance must fail the gate, and
// a deep one must also drag the speedup below its floor.
func TestApplyLatencyHandicapTripsGate(t *testing.T) {
	cur := baseFile()
	ApplyLatencyHandicap(cur, 0.75)
	if bad := Compare(baseFile(), cur, 0.10, 0.50); len(bad) != 1 {
		t.Fatalf("75%% latency handicap against a 50%% tolerance produced %v, want 1 violation", bad)
	}
	// Throughput entries are untouched.
	if cur.Benchmarks[1] != baseFile().Benchmarks[1] {
		t.Fatal("latency handicap mutated a throughput entry")
	}
	deep := baseFile()
	ApplyLatencyHandicap(deep, 300)
	if bad := Compare(baseFile(), deep, 0.10, 0.50); len(bad) != 2 {
		t.Fatalf("deep latency handicap produced %v, want p50 + speedup violations", bad)
	}
	unhit := baseFile()
	ApplyLatencyHandicap(unhit, 0)
	if !reflect.DeepEqual(unhit, baseFile()) {
		t.Fatal("zero latency handicap mutated the file")
	}
}

// TestApplyOverheadHandicapTripsGate proves the coordination-tax
// tripwire: synthetic overhead points pushed past the absolute ceiling
// must fail the gate, and only overhead entries may be touched.
func TestApplyOverheadHandicapTripsGate(t *testing.T) {
	cur := baseFile()
	ApplyOverheadHandicap(cur, 10)
	bad := Compare(baseFile(), cur, 0.10, 0.50)
	if len(bad) != 1 || !strings.Contains(bad[0], "overhead") {
		t.Fatalf("+10pt overhead handicap against the %.0f%% ceiling produced %v, want 1 overhead violation", MaxOverheadPct, bad)
	}
	if cur.Benchmarks[0] != baseFile().Benchmarks[0] || cur.Benchmarks[1] != baseFile().Benchmarks[1] {
		t.Fatal("overhead handicap mutated a non-overhead entry")
	}
	unhit := baseFile()
	ApplyOverheadHandicap(unhit, 0)
	if !reflect.DeepEqual(unhit, baseFile()) {
		t.Fatal("zero overhead handicap mutated the file")
	}
}

// TestLoadAcceptsV1 pins the one-release compatibility shim: a v1
// (throughput-only) baseline still loads, with kinds defaulted.
func TestLoadAcceptsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := &File{
		Schema: schemaV1,
		Benchmarks: []Entry{
			{Name: "SimulatorCycles", CyclesPerSec: 300_000, AllocsPerOp: 2000, NsPerOp: 1e8},
		},
	}
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks[0].Kind != KindThroughput {
		t.Fatalf("v1 entry kind = %q, want %q", got.Benchmarks[0].Kind, KindThroughput)
	}
}

// TestLoadAcceptsOlderSchemas pins the ops-throughput migration: every
// prior schema version still loads under the v4 reader.
func TestLoadAcceptsOlderSchemas(t *testing.T) {
	for _, s := range []string{schemaV1, schemaV2, schemaV3} {
		path := filepath.Join(t.TempDir(), "bench.json")
		f := baseFile()
		f.Schema = s
		if err := f.Write(path); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err != nil {
			t.Errorf("Load rejected schema %q: %v", s, err)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := baseFile()
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip: %+v, want %+v", got, f)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := baseFile()
	f.Schema = "benchgate/v0"
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted an unknown schema")
	}
}
