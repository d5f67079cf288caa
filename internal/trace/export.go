package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/schema"
)

// Format selects the export encoding.
type Format int

const (
	// FormatJSONL writes one JSON object per line: every event in
	// emission order, then one line per registered counter and gauge,
	// then a footer with ring statistics. Grep/jq-friendly.
	FormatJSONL Format = iota
	// FormatChrome writes a Chrome trace_event JSON document loadable
	// by chrome://tracing and Perfetto: device-wide control events and
	// per-SM mechanism events as instant events on labeled tracks, and
	// the quota grant/consume/carry trajectory of every kernel slot as
	// counter tracks.
	FormatChrome
)

// String returns the canonical flag value of the format.
func (f Format) String() string {
	if f == FormatChrome {
		return "chrome"
	}
	return "jsonl"
}

// Ext returns the conventional file extension for the format.
func (f Format) Ext() string {
	if f == FormatChrome {
		return ".trace.json"
	}
	return ".trace.jsonl"
}

// ParseFormat resolves a -trace-format flag value.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "jsonl":
		return FormatJSONL, nil
	case "chrome", "trace_event", "chrometrace":
		return FormatChrome, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (known: jsonl, chrome)", s)
}

// Export writes the tracer's buffered events and counters to w in the
// given format. A nil tracer exports an empty but well-formed document.
func Export(w io.Writer, t *Tracer, f Format) error {
	if f == FormatChrome {
		return exportChrome(w, t)
	}
	return exportJSONL(w, t)
}

// jsonlHeader is the first line of every JSONL export: the schema
// version shared with the checkpoint journal and the qosd v1 API
// (internal/schema), so offline tooling can refuse traces written by a
// different release before misreading a single event.
type jsonlHeader struct {
	Schema int `json:"schema"`
}

// jsonlEvent is the JSONL line schema. Field order is the struct order
// (encoding/json preserves it), so output is byte-deterministic for a
// deterministic simulation — the golden-trace test depends on this.
type jsonlEvent struct {
	Cycle int64   `json:"cycle"`
	Epoch int32   `json:"epoch"`
	Kind  string  `json:"kind"`
	SM    int16   `json:"sm"`
	Slot  int16   `json:"slot"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
}

type jsonlCounter struct {
	Counter string `json:"counter"`
	Value   int64  `json:"value"`
}

type jsonlGauge struct {
	Gauge string  `json:"gauge"`
	Value float64 `json:"value"`
}

type jsonlFooter struct {
	Events  int   `json:"events"`
	Dropped int64 `json:"dropped"`
}

func exportJSONL(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Schema: schema.Version}); err != nil {
		return err
	}
	var err error
	t.Each(func(ev Event) bool {
		err = enc.Encode(jsonlEvent{
			Cycle: ev.Cycle, Epoch: ev.Epoch, Kind: ev.Kind.String(),
			SM: ev.SM, Slot: ev.Slot, A: ev.A, B: ev.B,
		})
		return err == nil
	})
	if err != nil {
		return err
	}
	for _, c := range t.Registry().Counters() {
		if err := enc.Encode(jsonlCounter{Counter: c.Name(), Value: c.Value()}); err != nil {
			return err
		}
	}
	for _, g := range t.Registry().Gauges() {
		if err := enc.Encode(jsonlGauge{Gauge: g.Name(), Value: g.Value()}); err != nil {
			return err
		}
	}
	if err := enc.Encode(jsonlFooter{Events: t.Len(), Dropped: t.Dropped()}); err != nil {
		return err
	}
	return bw.Flush()
}

// Chrome trace_event schema subset: instant events ("ph":"i"), counter
// events ("ph":"C") and metadata ("ph":"M"). Timestamps are simulated
// cycles presented as microseconds. Process 0 carries device-wide
// control events (one thread per kernel slot); process 1 carries per-SM
// mechanism events (one thread per SM).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	chromePidDevice = 0
	chromePidSMs    = 1
)

// chromeArgs returns the human-readable payload of an event. Keys are
// chosen so the tracing UI shows meaningful labels per kind.
func chromeArgs(ev Event) map[string]any {
	switch ev.Kind {
	case KindEpochRoll:
		return map[string]any{"epoch": ev.Epoch, "instrs": ev.A, "tbs_held": ev.B}
	case KindQuotaGrant:
		return map[string]any{"quota": ev.A, "alpha": ev.B}
	case KindQuotaCarry:
		return map[string]any{"carry": ev.A, "allowance": ev.B}
	case KindQuotaConsumed:
		return map[string]any{"consumed": ev.A, "leftover": ev.B}
	case KindAlpha:
		return map[string]any{"alpha": ev.A, "prev": ev.B}
	case KindElasticEpoch:
		return map[string]any{"epoch_len": ev.A}
	case KindReplenish:
		return map[string]any{"share": ev.A}
	case KindArtificialGoal:
		return map[string]any{"goal": ev.A, "prev": ev.B}
	case KindGoalCheck:
		return map[string]any{"ipc": ev.A, "goal": ev.B}
	case KindTBDispatch, KindTBRestore:
		return map[string]any{"grid_idx": ev.A}
	case KindTBPreempt:
		return map[string]any{"grid_idx": ev.A, "ctx_bytes": ev.B}
	case KindGateStall:
		return map[string]any{"counter": ev.A}
	case KindSMDrain:
		return map[string]any{"tbs": ev.A, "ctx_bytes": ev.B}
	case KindTBAdjust:
		return map[string]any{"cap": ev.A, "prev_cap": ev.B}
	case KindSMMove:
		return map[string]any{"recv_slot": ev.Slot}
	case KindKernelRelaunch:
		return map[string]any{"launches": ev.A}
	}
	return map[string]any{"a": ev.A, "b": ev.B}
}

func exportChrome(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	first := true
	write := func(ce chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		// Encoder appends a newline; that keeps the array one event per
		// line, which diffs and greps well.
		return enc.Encode(ce)
	}

	// Track labels. Slots and SMs present in the event stream get named
	// threads so the tracing UI reads "slot 0", "SM 3" instead of bare
	// tids.
	slots := map[int16]bool{}
	sms := map[int16]bool{}
	t.Each(func(ev Event) bool {
		if ev.Slot >= 0 {
			slots[ev.Slot] = true
		}
		if ev.SM >= 0 {
			sms[ev.SM] = true
		}
		return true
	})
	meta := func(pid, tid int, name, value string) error {
		return write(chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": value}})
	}
	if err := meta(chromePidDevice, 0, "process_name", "device (QoS manager)"); err != nil {
		return err
	}
	if err := meta(chromePidSMs, 0, "process_name", "SMs"); err != nil {
		return err
	}
	for slot := int16(0); int(slot) < 64; slot++ {
		if slots[slot] {
			if err := meta(chromePidDevice, int(slot), "thread_name", fmt.Sprintf("slot %d", slot)); err != nil {
				return err
			}
		}
	}
	for sm := int16(0); int(sm) < 1024; sm++ {
		if sms[sm] {
			if err := meta(chromePidSMs, int(sm), "thread_name", fmt.Sprintf("SM %d", sm)); err != nil {
				return err
			}
		}
	}

	// Run-level counters and gauges appear after the events as a final
	// counter sample at the last event's timestamp.
	var lastTs int64
	var err error
	t.Each(func(ev Event) bool {
		lastTs = ev.Cycle
		pid, tid := chromePidDevice, 0
		if ev.SM >= 0 {
			pid, tid = chromePidSMs, int(ev.SM)
		} else if ev.Slot >= 0 {
			tid = int(ev.Slot)
		}
		if err = write(chromeEvent{
			Name: ev.Kind.String(), Ph: "i", Ts: ev.Cycle, Pid: pid, Tid: tid,
			S: "t", Args: chromeArgs(ev),
		}); err != nil {
			return false
		}
		// The per-slot quota trajectory additionally renders as counter
		// tracks, the Chrome-native way to see grant/carry/consumed per
		// epoch at a glance.
		switch ev.Kind {
		case KindQuotaGrant, KindQuotaCarry, KindQuotaConsumed:
			series := map[Kind]string{
				KindQuotaGrant:    "grant",
				KindQuotaCarry:    "carry",
				KindQuotaConsumed: "consumed",
			}[ev.Kind]
			err = write(chromeEvent{
				Name: fmt.Sprintf("quota slot %d", ev.Slot), Ph: "C",
				Ts: ev.Cycle, Pid: chromePidDevice, Tid: int(ev.Slot),
				Args: map[string]any{series: ev.A},
			})
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	for _, c := range t.Registry().Counters() {
		if err := write(chromeEvent{Name: c.Name(), Ph: "C", Ts: lastTs,
			Pid: chromePidDevice, Tid: 0, Args: map[string]any{"value": c.Value()}}); err != nil {
			return err
		}
	}
	for _, g := range t.Registry().Gauges() {
		if err := write(chromeEvent{Name: g.Name(), Ph: "C", Ts: lastTs,
			Pid: chromePidDevice, Tid: 0, Args: map[string]any{"value": g.Value()}}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
