// Command benchmark measures the whole path this repository offers, from
// the cycle-level quota simulator to a journaled admission verdict over
// HTTP, on five workloads that stress different layers (see README.md).
//
//	go run ./benchmark -seed 1                 every workload, both passes, a table
//	go run ./benchmark -workload admit-warm    one workload
//	go run ./benchmark -selfcheck              the end-to-end set twice, differences against bounds
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the one BENCHMARK.json names: one workload, one pass
// (end-to-end metrics with --trace 0, per-layer metrics with --trace 1),
// one JSON object on the last line of standard output. Load comes from a
// single closed-loop client goroutine in this process; the seed feeds
// stream.Generate and the co-run draw, and the program under test only
// ever sees generated inputs.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is one workload run's environment.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	// rec collects spans on the traced pass; nil on the untraced one.
	rec *recorder
	// journalDir is this process's private scratch for journals. It
	// defaults to a directory inside the checkout: -journal-dir moves it
	// (a tmpfs such as /dev/shm takes fsync jitter out; see README).
	journalDir string
	// benchDir is the benchmark's own directory (golden/, out/).
	benchDir     string
	updateGolden bool
	// inject makes verification fail on purpose (acceptance check):
	// "corrupt-journal" or "flip-verdict".
	inject string
	logf   func(format string, args ...any)
}

// units turns the -seconds budget into a number of units (passes or
// repeats) of nominal length unitSeconds on the reference box: two at
// least. The count is a function of the flags alone, never of how fast
// the code under test ran, so both commits of a comparison do the same
// work and the fastest-of-k estimators (see repeats) keep the same k.
func (e *env) units(unitSeconds float64) int {
	if k := int(e.seconds / unitSeconds); k > 2 {
		return k
	}
	return 2
}

// result is what one pass of one workload reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]int
	problems          []string
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), samples: make(map[string]int)}
}

func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = v
	r.samples[name] = samples
}

// fail records one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// digest accumulates a SHA-256 over the JSON of the values added.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) add(vs ...any) {
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		d.h.Write(b)
		d.h.Write([]byte{'\n'})
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// compareGolden reports whether digest differs from the committed
// golden/<workload>.digest (1) or not (0). -update-golden rewrites it.
func compareGolden(e *env, name, digest string) (float64, error) {
	path := filepath.Join(e.benchDir, "golden", name+".digest")
	if e.updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return 0, err
		}
		return 0, os.WriteFile(path, []byte(digest+"\n"), 0o644)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("golden digest: %w (run with -update-golden to record it)", err)
	}
	if strings.TrimSpace(string(b)) != digest {
		return 1, nil
	}
	return 0, nil
}

// runOne runs one pass of one workload.
func runOne(w *workloadDef, base env, trace bool) (*result, error) {
	e := base
	e.trace = trace
	if trace {
		e.rec = newRecorder()
	}
	dir, err := os.MkdirTemp(base.journalDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.journalDir = dir
	res, err := w.run(&e)
	if err != nil {
		return nil, err
	}
	if trace {
		out := filepath.Join(e.benchDir, "out", "trace-"+w.Name+".json")
		meta := map[string]any{"workload": w.Name, "seed": e.seed}
		if err := e.rec.writeFile(out, meta); err != nil {
			return nil, err
		}
	}
	for _, d := range defsFor(trace) {
		if _, ok := res.metrics[d.Name]; !ok {
			if !trace {
				return nil, fmt.Errorf("%s: end-to-end metric %s not measured", w.Name, d.Name)
			}
			res.set(d.Name, 0, 0) // not applicable to this workload
		}
	}
	return res, nil
}

// driverLine is the one JSON object the driver reads.
func driverLine(res *result, defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		ms[d.Name] = mv{res.metrics[d.Name], d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms})
	return string(b)
}

// manifestJSON renders BENCHMARK.json from spec.go, so the two cannot
// drift apart (spec_test.go checks the committed file against it).
func manifestJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err)
	}
	return strings.TrimSpace(buf.String())
}

func printTable(name string, res *result, defs []metricDef) {
	for _, d := range defs {
		note := ""
		for tag, p := range map[string]float64{"_p90_": 0.9, "_p99_": 0.99} {
			if n := res.samples[d.Name]; strings.Contains(d.Name, tag) && n > 0 && samplesBeyond(n, p) < 10 {
				note = "  (informational: fewer than ten samples beyond it)"
			}
		}
		fmt.Printf("%-12s %-38s %16s %-7s n=%d%s\n", name, d.Name, fmtValue(res.metrics[d.Name]), d.Unit, res.samples[d.Name], note)
	}
	fmt.Printf("%-12s %-38s %16.6f %-7s %d/%d\n", name, "failed_share", float64(res.failed)/float64(res.attempted), "share", res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Printf("%-12s FAILED CHECK: %s\n", name, p)
	}
}

func main() {
	base := env{
		benchDir: "benchmark",
		logf:     func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	var (
		workload  = flag.String("workload", "", "run one workload (default: all five)")
		traceFlag = flag.String("trace", "", "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and compare against the bounds")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as spec.go defines it, and exit")
	)
	flag.Uint64Var(&base.seed, "seed", defaultSeed, "input seed: feeds stream.Generate and the co-run draw")
	flag.Float64Var(&base.seconds, "seconds", runSeconds, "how long the timed section of a pass measures")
	flag.StringVar(&base.journalDir, "journal-dir", "", "where journals live (default: benchmark/out/journals in the checkout)")
	flag.BoolVar(&base.updateGolden, "update-golden", false, "rewrite benchmark/golden/*.digest from this run")
	flag.StringVar(&base.inject, "inject", "", "make verification fail on purpose: corrupt-journal | flip-verdict")
	flag.Parse()
	if *manifest {
		fmt.Println(manifestJSON())
		return
	}
	if err := run(*workload, *traceFlag, *selfcheck, base); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defsFor names the metrics a pass reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func run(workload, traceFlag string, selfcheck bool, base env) error {
	if _, err := os.Stat(filepath.Join(base.benchDir, "spec.go")); err != nil {
		return fmt.Errorf("run from the repository root (no %s/spec.go here)", base.benchDir)
	}
	if base.journalDir == "" {
		base.journalDir = filepath.Join(base.benchDir, "out", "journals")
	}
	if err := os.MkdirAll(base.journalDir, 0o755); err != nil {
		return err
	}
	base.logf("journals under %s", base.journalDir)

	run := workloads
	if workload != "" {
		w := workloadByName(workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		run = []workloadDef{*w}
	}
	if selfcheck {
		return selfCheck(run, base)
	}

	// Driver form: one workload, one pass, one JSON line.
	if workload != "" && traceFlag != "" {
		trace := traceFlag == "1"
		res, err := runOne(&run[0], base, trace)
		if err != nil {
			return err
		}
		for _, p := range res.problems {
			base.logf("FAILED CHECK: %s", p)
		}
		fmt.Println(driverLine(res, defsFor(trace)))
		if res.failed > 0 {
			return fmt.Errorf("%s: %d of %d operations or checks failed", workload, res.failed, res.attempted)
		}
		return nil
	}

	start := time.Now()
	failed := 0
	for i := range run {
		w := &run[i]
		for _, trace := range []bool{false, true} {
			if traceFlag != "" && trace != (traceFlag == "1") {
				continue
			}
			t0 := time.Now()
			res, err := runOne(w, base, trace)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printTable(w.Name, res, defsFor(trace))
			base.logf("%s trace=%v took %.1fs", w.Name, trace, time.Since(t0).Seconds())
			failed += res.failed
		}
	}
	base.logf("total %.1fs", time.Since(start).Seconds())
	if failed > 0 {
		return fmt.Errorf("%d operations or checks failed", failed)
	}
	return nil
}

// selfCheck runs the end-to-end pass of every workload twice, back to
// back, and prints per metric and workload the relative difference
// against the metric's bound. Any difference beyond its bound is an
// error: the benchmark could not resolve a regression of that size.
func selfCheck(run []workloadDef, base env) error {
	over := 0
	for i := range run {
		w := &run[i]
		var rounds [2]*result
		for r := range rounds {
			res, err := runOne(w, base, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d failed checks: %v", w.Name, res.failed, res.problems)
			}
			rounds[r] = res
		}
		for _, d := range endToEnd {
			a, b := rounds[0].metrics[d.Name], rounds[1].metrics[d.Name]
			diff := math.Abs(b-a) / a
			mark := "ok"
			if diff > d.Bound {
				mark = "OVER"
				over++
			}
			fmt.Printf("%-12s %-16s first %14.6g second %14.6g %-5s diff %6.2f%% bound %5.1f%% %s\n",
				w.Name, d.Name, a, b, d.Unit, 100*diff, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs differ by more than their bound", over)
	}
	return nil
}
