package exp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/workloads"
)

// The one CSV form of sweep results: cmd/sweep writes it, and a study's
// row files (rows.go) hold it. A row carries every field a reducer reads
// (the case's AllReached and InstrPerWatt, and each kernel's Reached,
// IPC, goal IPC, GoalRatio and NormThroughput; a kernel is a QoS kernel
// iff its goal IPC is positive) as shortest round-trip text, so a table
// reduced from rows is byte-identical to one reduced from the simulated
// cases. No field needs CSV quoting, so a row is its fields joined by
// commas.

// kernelCols are the per-kernel columns, each prefixed by the kernel's
// role in the case.
var kernelCols = []string{"reached", "ipc", "goal_ipc", "goal_ratio", "norm_tput"}

// roles names the grid's kernels in spec order.
func (g Grid) roles() []string {
	if g.NQoS == 0 {
		return []string{"qos", "nonqos"}
	}
	return []string{"a", "b", "c"}
}

// CSVHeader returns the header row of g's CSV: the case's coordinates,
// its outcome, then the per-kernel columns.
func (g Grid) CSVHeader() []string {
	h := []string{"scheme", "qos", "nonqos", "class", "goal"}
	if g.NQoS != 0 {
		h = []string{"scheme", "a", "b", "c", "nqos", "goal"}
	}
	h = append(h, "reached", "instr_per_watt")
	for _, r := range g.roles() {
		for _, c := range kernelCols {
			h = append(h, r+"_"+c)
		}
	}
	return h
}

// coords renders the coordinate columns of case i under scheme. A row
// file is checked against them, so they are the only text a decoder
// compares rather than parses: the goal column is the grid's own goal,
// e.g. 0.6000000000000001 for Goals()[2].
func (g Grid) coords(i int, scheme core.Scheme) []string {
	goal := formatFloat(g.goal(i))
	if g.NQoS == 0 {
		p := g.Pairs[i/len(g.Goals)]
		cls, _ := workloads.PairClass(p.QoS, p.NonQoS)
		return []string{scheme.Name(), p.QoS, p.NonQoS, cls, goal}
	}
	t := g.Trios[i/len(g.Goals)]
	return []string{scheme.Name(), t.A, t.B, t.C, strconv.Itoa(g.NQoS), goal}
}

// CSVRows renders the completed cases of g in case order; a failed case
// (nil Res) has no row.
func (g Grid) CSVRows(cases []Case) [][]string {
	var rows [][]string
	for i, c := range cases {
		if c.Res != nil {
			rows = append(rows, append(g.coords(i, c.Res.Scheme), outcome(c.Res)...))
		}
	}
	return rows
}

// outcome renders a result's outcome and per-kernel columns.
func outcome(res *core.Result) []string {
	out := []string{strconv.FormatBool(res.AllReached), formatFloat(res.Power.InstrPerWatt)}
	for _, k := range res.Kernels {
		out = append(out, strconv.FormatBool(k.Reached), formatFloat(k.IPC), formatFloat(k.GoalIPC),
			formatFloat(k.GoalRatio), formatFloat(k.NormThroughput))
	}
	return out
}

// formatFloat is the shortest text that parses back to v exactly.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// encodeRows renders the complete cases of g as a row file: the header
// and one line per case.
func (g Grid) encodeRows(cases []Case) []byte {
	var b strings.Builder
	b.WriteString(strings.Join(g.CSVHeader(), ","))
	b.WriteByte('\n')
	for _, row := range g.CSVRows(cases) {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// decodeRows parses a row file of g's sweep under scheme. Rows from disk
// are untrusted: the header must be g's, there must be exactly one row
// per case, in case order, each naming its case's coordinates, with every
// value in the form encodeRows writes it. An error names the file and
// line. Anything decodeRows accepts re-encodes to the same bytes.
func (g Grid) decodeRows(name string, data []byte, scheme core.Scheme) ([]Case, error) {
	text := string(data)
	if !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("%s:%d: truncated: no final newline", name, strings.Count(text, "\n")+1)
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if want := strings.Join(g.CSVHeader(), ","); lines[0] != want {
		return nil, fmt.Errorf("%s:1: header %q, want %q", name, lines[0], want)
	}
	rows := lines[1:]
	out := make([]Case, g.Len())
	for i := 0; i < min(len(rows), g.Len()); i++ {
		res, err := g.parseRow(i, scheme, strings.Split(rows[i], ","))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, i+2, err)
		}
		out[i] = g.Case(i, res)
	}
	if len(rows) != g.Len() {
		return nil, fmt.Errorf("%s:%d: %d rows, the grid has %d cases", name, min(len(rows), g.Len())+2, len(rows), g.Len())
	}
	return out, nil
}

// parseRow checks row against case i's coordinates and parses its
// outcome into the result the case's simulation returned.
func (g Grid) parseRow(i int, scheme core.Scheme, row []string) (*core.Result, error) {
	want := g.coords(i, scheme)
	nk := len(g.roles())
	if len(row) != len(want)+2+nk*len(kernelCols) {
		return nil, fmt.Errorf("%d fields, want %d", len(row), len(want)+2+nk*len(kernelCols))
	}
	if got := row[:len(want)]; !slices.Equal(got, want) {
		return nil, fmt.Errorf("row is %s, want case %d %s", strings.Join(got, ","), i, strings.Join(want, ","))
	}
	p := fieldParser{row: row, col: len(want), header: g.CSVHeader()}
	res := &core.Result{Scheme: scheme, AllReached: p.bool()}
	res.Power.InstrPerWatt = p.float()
	reached := true
	for k, spec := range g.specs(i) {
		kr := core.KernelResult{Name: spec.Workload, Reached: p.bool(), IPC: p.float(), GoalIPC: p.float(),
			GoalRatio: p.float(), NormThroughput: p.float()}
		kr.IsQoS = kr.GoalIPC > 0
		if p.err == nil && kr.IsQoS != (spec.GoalFrac > 0) {
			p.err = fmt.Errorf("kernel %s: goal_ipc %s contradicts its case's goal %s", g.roles()[k],
				formatFloat(kr.GoalIPC), formatFloat(spec.GoalFrac))
		}
		if kr.IsQoS && !kr.Reached {
			reached = false
		}
		res.Kernels = append(res.Kernels, kr)
	}
	if p.err == nil && res.AllReached != reached {
		p.err = fmt.Errorf("reached is %t, but its QoS kernels' reached give %t", res.AllReached, reached)
	}
	return res, p.err
}

// fieldParser reads a row's outcome columns in order; the first bad
// field stops it and names its column.
type fieldParser struct {
	row    []string
	header []string
	col    int
	err    error
}

// next returns the next field's text, or "" once an error is recorded.
func (p *fieldParser) next() string {
	p.col++
	if p.err != nil {
		return ""
	}
	return p.row[p.col-1]
}

func (p *fieldParser) fail(s string) {
	p.err = fmt.Errorf("column %s: %q is not in canonical form", p.header[p.col-1], s)
}

func (p *fieldParser) bool() bool {
	s := p.next()
	if p.err == nil && s != "true" && s != "false" {
		p.fail(s)
	}
	return s == "true"
}

func (p *fieldParser) float() float64 {
	s := p.next()
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || formatFloat(v) != s {
		p.fail(s)
	}
	return v
}
