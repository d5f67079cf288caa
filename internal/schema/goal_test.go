package schema_test

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/schema"
)

// The frac form must round-trip as a bare JSON number: requests and
// journals have always carried a fractional goal as "goal":0.5, and the
// union must not change those bytes.
func TestGoalFracBareNumberWire(t *testing.T) {
	b, err := json.Marshal([]schema.Goal{schema.FracGoal(0.5), schema.FracGoal(0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[0.5,0.9]" {
		t.Fatalf("frac goals marshal = %s, want bare numbers [0.5,0.9]", b)
	}
	var back []schema.Goal
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != schema.FracGoal(0.5) || back[1] != schema.FracGoal(0.9) {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestGoalUnionJSONForms(t *testing.T) {
	cases := []struct {
		in   string
		want schema.Goal
	}{
		{`null`, schema.Goal{}},
		{`0.75`, schema.FracGoal(0.75)},
		{`{"frac":0.5}`, schema.FracGoal(0.5)},
		{`{"ipc":2.5}`, schema.IPCGoal(2.5)},
		{`{"deadline":{"instrs":1000,"seconds":0.5}}`,
			schema.DeadlineGoal(schema.Deadline{Instrs: 1000, Seconds: 0.5})},
		{`{"latency":{"instrs":2000,"seconds":0.002,"percentile":0.99}}`,
			schema.LatencyGoal(schema.Latency{Instrs: 2000, Seconds: 0.002, Percentile: 0.99})},
		{`{"latency":{"instrs":2000,"seconds":0.002}}`, // percentile defaults at lowering, not decode
			schema.LatencyGoal(schema.Latency{Instrs: 2000, Seconds: 0.002})},
		{`{"periodic":{"instrs":500,"period_s":0.033}}`,
			schema.PeriodicGoal(schema.Periodic{Instrs: 500, PeriodS: 0.033})},
		{`{"periodic":{"instrs":500,"period_s":0.033,"deadline_s":0.01}}`,
			schema.PeriodicGoal(schema.Periodic{Instrs: 500, PeriodS: 0.033, DeadlineS: 0.01})},
	}
	for _, c := range cases {
		var g schema.Goal
		if err := json.Unmarshal([]byte(c.in), &g); err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if g != c.want {
			t.Fatalf("%s: got %+v want %+v", c.in, g, c.want)
		}
		// Every form must round-trip through its canonical encoding.
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.in, err)
		}
		var back schema.Goal
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: reparse %s: %v", c.in, b, err)
		}
		if back != g {
			t.Fatalf("%s: round trip %s -> %+v", c.in, b, back)
		}
	}
}

func TestGoalUnionRejects(t *testing.T) {
	for _, in := range []string{
		`{"frac":0.5,"ipc":2}`, // two forms
		`{}`,                   // zero forms in object encoding
		`"fast"`,               // wrong JSON type
		`{"nonsense":1}`,       // unknown key
	} {
		var g schema.Goal
		if err := json.Unmarshal([]byte(in), &g); !errors.Is(err, schema.ErrBadGoal) {
			t.Fatalf("%s: err = %v, want ErrBadGoal", in, err)
		}
	}
}

func TestGoalValidate(t *testing.T) {
	ok := []schema.Goal{
		{},
		schema.FracGoal(0.5),
		schema.FracGoal(1),
		schema.IPCGoal(3),
		schema.DeadlineGoal(schema.Deadline{Instrs: 10, Seconds: 1}),
		schema.LatencyGoal(schema.Latency{Instrs: 10, Seconds: 0.01}),
		schema.LatencyGoal(schema.Latency{Instrs: 10, Seconds: 0.01, Percentile: 0.999}),
		schema.PeriodicGoal(schema.Periodic{Instrs: 10, PeriodS: 0.05}),
		schema.PeriodicGoal(schema.Periodic{Instrs: 10, PeriodS: 0.05, DeadlineS: 0.05}),
	}
	for _, g := range ok {
		if err := g.Validate(); err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
	}
	bad := []schema.Goal{
		schema.FracGoal(0),
		schema.FracGoal(1.5),
		schema.FracGoal(-0.1),
		schema.IPCGoal(-1),
		schema.DeadlineGoal(schema.Deadline{Instrs: 0, Seconds: 1}),
		schema.DeadlineGoal(schema.Deadline{Instrs: 10, Seconds: 0}),
		schema.LatencyGoal(schema.Latency{Instrs: 0, Seconds: 0.01}),
		schema.LatencyGoal(schema.Latency{Instrs: 10, Seconds: 0}),
		schema.LatencyGoal(schema.Latency{Instrs: 10, Seconds: 0.01, Percentile: 0.3}),
		schema.LatencyGoal(schema.Latency{Instrs: 10, Seconds: 0.01, Percentile: 1}),
		schema.PeriodicGoal(schema.Periodic{Instrs: 0, PeriodS: 0.05}),
		schema.PeriodicGoal(schema.Periodic{Instrs: 10, PeriodS: 0}),
		schema.PeriodicGoal(schema.Periodic{Instrs: 10, PeriodS: 0.05, DeadlineS: 0.06}),
		schema.PeriodicGoal(schema.Periodic{Instrs: 10, PeriodS: 0.05, DeadlineS: -1}),
		{Kind: "bogus"},
	}
	for _, g := range bad {
		if err := g.Validate(); !errors.Is(err, schema.ErrBadGoal) {
			t.Fatalf("%+v: err = %v, want ErrBadGoal", g, err)
		}
	}
}

func TestGoalFromForms(t *testing.T) {
	if g, err := schema.GoalFromForms(0.5, 0, nil); err != nil || g != schema.FracGoal(0.5) {
		t.Fatalf("frac form: %+v, %v", g, err)
	}
	if g, err := schema.GoalFromForms(0, 2, nil); err != nil || g != schema.IPCGoal(2) {
		t.Fatalf("ipc form: %+v, %v", g, err)
	}
	dl := &schema.Deadline{Instrs: 5, Seconds: 1}
	if g, err := schema.GoalFromForms(0, 0, dl); err != nil || g.Kind != schema.GoalDeadline {
		t.Fatalf("deadline form: %+v, %v", g, err)
	}
	if g, err := schema.GoalFromForms(0, 0, nil); err != nil || !g.IsZero() {
		t.Fatalf("none form: %+v, %v", g, err)
	}
	if _, err := schema.GoalFromForms(0.5, 2, nil); !errors.Is(err, schema.ErrBadGoal) {
		t.Fatalf("two forms: err = %v, want ErrBadGoal", err)
	}
}

// FuzzGoalJSON hardens the goal union's decoder, which faces the network
// inside every /v1 and /v2 submission and sweep lease: arbitrary bytes
// never panic it, and a goal that decodes and validates survives
// marshal -> unmarshal unchanged (what a journal or a worker is handed
// is what the client sent).
func FuzzGoalJSON(f *testing.F) {
	for _, seed := range []string{
		`null`, `0.75`, `{"frac":0.5}`, `{"ipc":2.5}`,
		`{"deadline":{"instrs":1000,"seconds":0.5,"transfer_bytes":4096,"pcie_gbps":8}}`,
		`{"deadline":{"instrs":9000000000000000000,"seconds":1e-300}}`,
		`{"latency":{"instrs":3000000,"seconds":0.0002,"percentile":0.99}}`,
		`{"periodic":{"instrs":2000000,"period_s":0.0005,"deadline_s":0.0002}}`,
		`{"ipc":1,"frac":0.5}`, `{"ipc":1}{"ipc":2}`, `{"bogus":1}`, `"0.5"`, `[0.5]`, `1e999`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var g schema.Goal
		if err := g.UnmarshalJSON(b); err != nil || g.Validate() != nil {
			return // rejected input: fine, as long as we did not panic
		}
		enc, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("valid goal %+v does not marshal: %v", g, err)
		}
		var back schema.Goal
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("marshalled goal %s does not decode: %v", enc, err)
		}
		if back != g {
			t.Fatalf("round trip changed the goal: %+v -> %s -> %+v", g, enc, back)
		}
	})
}
