package schema_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
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

// goalObject mirrors the schema package's object form under the same
// name, so the typed decode's errors read the same from twoPassGoal.
type goalObject struct {
	Frac     *float64         `json:"frac,omitempty"`
	IPC      *float64         `json:"ipc,omitempty"`
	Deadline *schema.Deadline `json:"deadline,omitempty"`
	Latency  *schema.Latency  `json:"latency,omitempty"`
	Periodic *schema.Periodic `json:"periodic,omitempty"`
}

// twoPassGoal is the goal decoder as it was before UnmarshalJSON
// dispatched on the first byte: a probe into any, then the typed decode.
// FuzzGoalJSON holds the one-pass decoder to its results and errors.
func twoPassGoal(b []byte) (schema.Goal, error) {
	var probe any
	if err := json.Unmarshal(b, &probe); err != nil {
		return schema.Goal{}, err
	}
	switch probe.(type) {
	case nil:
		return schema.Goal{}, nil
	case float64:
		var f float64
		if err := json.Unmarshal(b, &f); err != nil {
			return schema.Goal{}, err
		}
		return schema.FracGoal(f), nil
	case map[string]any:
		var obj goalObject
		if err := schema.DecodeStrict(b, &obj); err != nil {
			return schema.Goal{}, fmt.Errorf("%w: %v", schema.ErrBadGoal, err)
		}
		forms := 0
		for _, set := range []bool{obj.Frac != nil, obj.IPC != nil, obj.Deadline != nil, obj.Latency != nil, obj.Periodic != nil} {
			if set {
				forms++
			}
		}
		if forms != 1 {
			return schema.Goal{}, fmt.Errorf("%w: goal object must carry exactly one of frac, ipc, deadline, latency, periodic", schema.ErrBadGoal)
		}
		switch {
		case obj.Frac != nil:
			return schema.FracGoal(*obj.Frac), nil
		case obj.IPC != nil:
			return schema.IPCGoal(*obj.IPC), nil
		case obj.Deadline != nil:
			return schema.DeadlineGoal(*obj.Deadline), nil
		case obj.Latency != nil:
			return schema.LatencyGoal(*obj.Latency), nil
		default:
			return schema.PeriodicGoal(*obj.Periodic), nil
		}
	}
	return schema.Goal{}, fmt.Errorf("%w: goal must be a number, null, or a one-key object", schema.ErrBadGoal)
}

// FuzzGoalJSON hardens the goal union's decoder, which faces the network
// inside every /v1 and /v2 submission and sweep lease: arbitrary bytes
// never panic it, it decodes every input to the goal and the error value
// the two-pass decoder did (twoPassGoal), and a goal that decodes and
// validates survives marshal -> unmarshal unchanged (what a journal or a
// worker is handed is what the client sent).
func FuzzGoalJSON(f *testing.F) {
	for _, seed := range []string{
		`null`, ` null `, `nul`, `0.75`, `1e999`, `-`, `{"frac":0.5}`, `{"ipc":2.5}`,
		`{"deadline":{"instrs":1000,"seconds":0.5,"transfer_bytes":4096,"pcie_gbps":8}}`,
		`{"deadline":{"instrs":9000000000000000000,"seconds":1e-300}}`,
		`{"deadline":{"instrs":90000000000000000000,"seconds":1}}`,
		`{"latency":{"instrs":3000000,"seconds":0.0002,"percentile":0.99}}`,
		`{"periodic":{"instrs":2000000,"period_s":0.0005,"deadline_s":0.0002}}`,
		`{"ipc":1,"frac":0.5}`, `{"ipc":1}{"ipc":2}`, `{"ipc":1} `, `{"ipc":1e999}`, `{"bogus":1e999}`,
		`{"bogus":1}`, `{"ipc":"2"}`, `"0.5"`, `[0.5]`, `true`, `{`, ``, ` `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var g schema.Goal
		err := g.UnmarshalJSON(b)
		want, wantErr := twoPassGoal(b)
		if !reflect.DeepEqual(err, wantErr) || err == nil && g != want {
			t.Fatalf("%q decodes to %+v, %#v; the two-pass decoder gave %+v, %#v", b, g, err, want, wantErr)
		}
		if err != nil || g.Validate() != nil {
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
