package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schema"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every emit helper must be a no-op, not a panic.
	tr.EpochRoll(1, 0, 10, 2)
	tr.QuotaGrant(1, 0, 100, 1)
	tr.QuotaCarry(1, 0, 5, 105)
	tr.QuotaConsumed(1, 0, 95, 5)
	tr.Alpha(1, 0, 1.5, 1)
	tr.ElasticEpoch(1, 500)
	tr.Replenish(1, 0, 1, 50)
	tr.ArtificialGoal(1, 1, 2, 1)
	tr.GoalCheck(1, 0, 10, 12)
	tr.TBDispatch(1, 0, 0, 3)
	tr.TBRestore(1, 0, 0, 3)
	tr.TBPreempt(1, 0, 0, 3, 4096)
	tr.GateStall(1, 0, 0, -1)
	tr.SMDrain(1, 0, 4, 1<<14)
	tr.TBAdjust(1, 0, 0, 3, 2)
	tr.SMMove(1, 0, 1)
	tr.KernelRelaunch(1, 0, 2)
	tr.SetEpoch(3)
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer holds state")
	}
	// Registry handles from a nil tracer are no-op sinks.
	c := tr.Registry().Counter("x")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := tr.Registry().Gauge("y")
	g.Set(4)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
}

func TestEmissionOrderAndEpochStamp(t *testing.T) {
	tr := New(8)
	tr.QuotaGrant(100, 0, 50, 1)
	tr.SetEpoch(1)
	tr.QuotaGrant(200, 0, 60, 1.2)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Epoch != 0 || evs[1].Epoch != 1 {
		t.Fatalf("epoch stamps = %d,%d, want 0,1", evs[0].Epoch, evs[1].Epoch)
	}
	if evs[0].Cycle != 100 || evs[1].Cycle != 200 {
		t.Fatal("events out of order")
	}
	if evs[0].Kind != KindQuotaGrant || evs[0].Slot != 0 || evs[0].SM != -1 {
		t.Fatalf("bad event payload: %+v", evs[0])
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.TBDispatch(int64(i), 0, 0, i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want ring size 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (newest-kept order)", i, ev.Cycle, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
}

// fixedRing is the tracer's ring as it was when New allocated all of
// it: a write cursor over size slots that wraps, overwriting the oldest
// event and counting it dropped.
type fixedRing struct {
	ring    []Event
	next    int
	filled  bool
	dropped int64
}

func (f *fixedRing) emit(ev Event) {
	if f.filled {
		f.dropped++
	}
	f.ring[f.next] = ev
	if f.next++; f.next == len(f.ring) {
		f.next, f.filled = 0, true
	}
}

func (f *fixedRing) events() []Event {
	if !f.filled {
		return append([]Event(nil), f.ring[:f.next]...)
	}
	return append(append([]Event(nil), f.ring[f.next:]...), f.ring[:f.next]...)
}

func (f *fixedRing) len() int {
	if f.filled {
		return len(f.ring)
	}
	return f.next
}

// TestGrowingRingMatchesFixedRing: a ring that grows as events arrive
// answers Events, Len and Dropped exactly as a ring allocated whole at
// New did, below, at, one past and three times its capacity.
func TestGrowingRingMatchesFixedRing(t *testing.T) {
	for _, size := range []int{1, 7, 256, 1000} {
		for _, n := range []int{size - 1, size, size + 1, 3 * size} {
			tr, ref := New(size), &fixedRing{ring: make([]Event, size)}
			for i := 0; i < n; i++ {
				tr.SetEpoch(i / 3)
				tr.GateStall(int64(i), i%5, i%2, float64(i))
				ref.emit(Event{Cycle: int64(i), Kind: KindGateStall, SM: int16(i % 5), Slot: int16(i % 2), Epoch: int32(i / 3), A: float64(i)})
			}
			if got, want := tr.Events(), ref.events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("capacity %d, %d events: Events() = %d events from %v, the fixed ring holds %d from %v",
					size, n, len(got), got[:min(1, len(got))], len(want), want[:min(1, len(want))])
			}
			if tr.Len() != ref.len() || tr.Dropped() != ref.dropped {
				t.Fatalf("capacity %d, %d events: Len %d, Dropped %d; the fixed ring says %d, %d",
					size, n, tr.Len(), tr.Dropped(), ref.len(), ref.dropped)
			}
		}
	}
}

func TestRegistryHandles(t *testing.T) {
	tr := New(8)
	c1 := tr.Registry().Counter("epochs")
	c2 := tr.Registry().Counter("epochs")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	c1.Inc()
	c2.Add(2)
	if c1.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c1.Value())
	}
	g := tr.Registry().Gauge("alpha")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatal("gauge lost value")
	}
	// Snapshot order is sorted by name.
	tr.Registry().Counter("a_first")
	cs := tr.Registry().Counters()
	if len(cs) != 2 || cs[0].Name() != "a_first" || cs[1].Name() != "epochs" {
		t.Fatalf("counters not sorted: %v, %v", cs[0].Name(), cs[1].Name())
	}
}

func TestKindStringsDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); k < kindCount; k++ {
		s := k.String()
		if s == "invalid" || s == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"jsonl": FormatJSONL, "": FormatJSONL,
		"chrome": FormatChrome, "Chrome": FormatChrome, "trace_event": FormatChrome,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("accepted unknown format")
	}
}

func TestJSONLExportRoundTrips(t *testing.T) {
	tr := New(8)
	tr.QuotaGrant(500, 0, 1000, 1)
	tr.SetEpoch(1)
	tr.QuotaCarry(1000, 0, 37.5, 1037.5)
	tr.Registry().Counter("epochs").Add(2)
	tr.Registry().Gauge("alpha0").Set(1.25)

	var buf bytes.Buffer
	if err := Export(&buf, tr, FormatJSONL); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // header + 2 events + counter + gauge + footer
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), buf.String())
	}
	var head jsonlHeader
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil || head.Schema != schema.Version {
		t.Fatalf("header line %s (%v), want schema %d", lines[0], err, schema.Version)
	}
	var ev jsonlEvent
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "quota_grant" || ev.Cycle != 500 || ev.A != 1000 {
		t.Fatalf("bad first event line: %+v", ev)
	}
	var foot jsonlFooter
	if err := json.Unmarshal([]byte(lines[5]), &foot); err != nil {
		t.Fatal(err)
	}
	if foot.Events != 2 || foot.Dropped != 0 {
		t.Fatalf("bad footer: %+v", foot)
	}
	// Deterministic: exporting twice yields identical bytes.
	var buf2 bytes.Buffer
	if err := Export(&buf2, tr, FormatJSONL); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("JSONL export not deterministic")
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	tr := New(16)
	tr.QuotaGrant(500, 0, 1000, 1)
	tr.QuotaConsumed(1000, 0, 950, 50)
	tr.TBDispatch(3, 2, 1, 0)
	tr.GateStall(700, 1, 0, -3)
	tr.Registry().Counter("epochs").Add(2)

	var buf bytes.Buffer
	if err := Export(&buf, tr, FormatChrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	var instants, counters, metas int
	for _, ce := range doc.TraceEvents {
		switch ce.Ph {
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			metas++
		default:
			t.Fatalf("unexpected phase %q", ce.Ph)
		}
	}
	if instants != 4 {
		t.Fatalf("instants = %d, want 4", instants)
	}
	// quota grant + consumed each add a counter sample; registry adds one.
	if counters != 3 {
		t.Fatalf("counters = %d, want 3", counters)
	}
	if metas == 0 {
		t.Fatal("no track metadata emitted")
	}
	// Per-SM events land in the SM process with tid = smID.
	found := false
	for _, ce := range doc.TraceEvents {
		if ce.Name == "tb_dispatch" && ce.Pid == chromePidSMs && ce.Tid == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("tb_dispatch not routed to the SM track")
	}
}

func TestExportNilTracer(t *testing.T) {
	var buf bytes.Buffer
	if err := Export(&buf, nil, FormatJSONL); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"events":0`) {
		t.Fatalf("nil JSONL export missing footer: %s", buf.String())
	}
	buf.Reset()
	if err := Export(&buf, nil, FormatChrome); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil chrome export invalid")
	}
}

// BenchmarkEmitDisabled measures the no-op path cost of one emit call —
// the only cost the hot path pays when tracing is off (plus the inlined
// nil test at call sites).
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.TBDispatch(int64(i), 0, 0, i)
	}
}

// BenchmarkEmitEnabled measures the enabled ring-write path.
func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.TBDispatch(int64(i), 0, 0, i)
	}
}
