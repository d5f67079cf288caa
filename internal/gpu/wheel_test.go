package gpu

import (
	"reflect"
	"testing"

	"repro/internal/kern"
)

// wheelPair runs the same scenario with event-wheel stepping on and off
// and returns both devices. The wheel contract is byte-identical state,
// so callers compare whatever they care about with reflect.DeepEqual.
func wheelPair(t *testing.T, cycles int64, build func() *GPU, chunk func(*GPU, int64)) (on, off *GPU) {
	t.Helper()
	on, off = build(), build()
	off.SetEventWheel(false)
	chunk(on, cycles)
	chunk(off, cycles)
	return on, off
}

// memProfile is a memory-heavy profile so the co-run exercises the
// memory system, MSHR/credit pressure and TB churn.
func memProfile(name string) kern.Profile {
	p := smallProfile(name)
	p.Class = kern.ClassMemory
	p.FracGlobalMem = 0.5
	p.ReuseFrac = 0.1
	p.Iterations = 30
	return p
}

func coRun(t *testing.T) *GPU {
	t.Helper()
	ks := make([]*kern.Kernel, 2)
	for i, p := range []kern.Profile{smallProfile("a"), memProfile("b")} {
		k, err := kern.Build(i, p, 13)
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
	}
	g, err := New(smallCfg(), ks)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWheelIdleAccountingEquivalence is the regression test for idle
// window accounting under skipped cycles: a run with the event wheel
// jumping over idle stretches must credit exactly the same per-slot idle
// samples and idle-skip windows as cycle-by-cycle stepping. The single
// small kernel drains its grid and sits behind the relaunch gate
// repeatedly, so the run has real fast-forwardable stretches. Sampled
// occupancy is compared per chunk because IdleWarpAverages resets its
// accumulators on read — any drift in idleAcc or idleSamples shows up in
// the first differing interval rather than washing out over the run.
func TestWheelIdleAccountingEquivalence(t *testing.T) {
	build := func() *GPU {
		g, err := New(smallCfg(), buildKernels(t, "a"))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	on, off := build(), build()
	off.SetEventWheel(false)
	for chunk := 0; chunk < 3; chunk++ {
		on.Run(20_000)
		off.Run(20_000)
		av, bv := on.IdleWarpAverages(), off.IdleWarpAverages()
		if !reflect.DeepEqual(av, bv) {
			t.Fatalf("chunk %d: sampled idle-warp averages diverged\nwheel:  %v\nlegacy: %v", chunk, av, bv)
		}
	}
	if on.WheelJumps == 0 {
		t.Fatal("wheel never jumped: the equivalence check is vacuous")
	}
	if off.WheelJumps != 0 {
		t.Fatalf("legacy run jumped %d times with the wheel disabled", off.WheelJumps)
	}
	if !reflect.DeepEqual(*on.Stats[0], *off.Stats[0]) {
		t.Fatalf("kernel stats diverged\nwheel:  %+v\nlegacy: %+v", *on.Stats[0], *off.Stats[0])
	}
	for i, s := range on.SMs {
		r := off.SMs[i]
		if s.IssuedWarpInstrs != r.IssuedWarpInstrs || s.ActiveCycles != r.ActiveCycles {
			t.Fatalf("SM%d counters diverged (issued %d/%d active %d/%d)",
				i, s.IssuedWarpInstrs, r.IssuedWarpInstrs, s.ActiveCycles, r.ActiveCycles)
		}
	}
}

// scriptedController fires a state-mutating action at scripted cycles and
// publishes them through NextControlEvent, so the wheel is
// allowed to skip everything in between. It records the cycles at which
// its actions actually ran.
type scriptedController struct {
	g      *GPU
	events []int64 // ascending
	act    func(g *GPU, now int64, idx int)
	Hits   []int64
}

func (c *scriptedController) OnEpoch(now int64) {}
func (c *scriptedController) OnCycle(now int64) {
	for i, e := range c.events {
		if e == now {
			c.Hits = append(c.Hits, now)
			if c.act != nil {
				c.act(c.g, now, i)
			}
		}
	}
}
func (c *scriptedController) NextControlEvent(now int64) int64 {
	for _, e := range c.events {
		if e >= now {
			return e
		}
	}
	return NoEvent
}

// TestWheelSameCycleEventOrder collides controller events with the other
// event sources — one lands exactly on the scheduled epoch-roll cycle,
// one on an idle-warp sample boundary, one on a plain cycle — and makes
// each action reshape placement (mask flips force drains and
// re-dispatch). If the wheel processed same-cycle events in any order
// other than the legacy per-cycle one (dispatch, SMs, controller,
// sampling, epoch roll), the final counters would diverge.
func TestWheelSameCycleEventOrder(t *testing.T) {
	cfg := smallCfg()
	sampleEvery := cfg.EpochLength / int64(cfg.IdleWarpSamples)
	events := []int64{3*sampleEvery + 1, 7 * sampleEvery, cfg.EpochLength}
	act := func(g *GPU, now int64, idx int) {
		switch idx {
		case 0: // squeeze kernel 1 onto the top half of the device
			g.SetMask(1, []bool{false, false, true, true})
		case 1: // and give it the full device back at a sample boundary
			g.SetMask(1, []bool{true, true, true, true})
		case 2: // epoch-roll collision: nudge every sleeping SM
			g.WakeAll(now)
			g.RequestDispatch()
		}
	}
	var ctls [2]*scriptedController
	i := 0
	build := func() *GPU {
		g := coRun(t)
		c := &scriptedController{g: g, events: events, act: act}
		g.SetController(c)
		ctls[i] = c
		i++
		return g
	}
	on, off := wheelPair(t, 30_000, build, func(g *GPU, n int64) { g.Run(n) })
	if !reflect.DeepEqual(ctls[0].Hits, events) {
		t.Fatalf("wheel run fired actions at %v, want %v", ctls[0].Hits, events)
	}
	if !reflect.DeepEqual(ctls[0].Hits, ctls[1].Hits) {
		t.Fatalf("action cycles diverged: wheel %v legacy %v", ctls[0].Hits, ctls[1].Hits)
	}
	for slot := range on.Stats {
		if !reflect.DeepEqual(*on.Stats[slot], *off.Stats[slot]) {
			t.Fatalf("stats[%d] diverged\nwheel:  %+v\nlegacy: %+v", slot, *on.Stats[slot], *off.Stats[slot])
		}
	}
	if msg := on.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// chainController schedules its next event only while handling the
// current one: processing cycle T immediately arms T+1. The wheel asks
// for the next control event after advancing to T+1, so a correct
// implementation must treat "event at the cycle being asked about" as
// un-skippable; losing it would break the whole chain.
type chainController struct {
	pending int64
	left    int
	Hits    []int64
}

func (c *chainController) OnEpoch(now int64) {}
func (c *chainController) OnCycle(now int64) {
	if now != c.pending {
		return
	}
	c.Hits = append(c.Hits, now)
	if c.left > 0 {
		c.left--
		c.pending = now + 1 // schedule for the immediately next cycle
	} else {
		c.pending = -1
	}
}
func (c *chainController) NextControlEvent(now int64) int64 {
	if c.pending >= now {
		return c.pending
	}
	return NoEvent
}

// TestWheelCurrentCycleEventNotLost drives a chain of events where each
// one is scheduled during the handling of its predecessor, one cycle
// ahead — the tightest possible rescheduling. Every link must fire.
func TestWheelCurrentCycleEventNotLost(t *testing.T) {
	const first, links = 4_111, 5
	run := func(wheel bool) *chainController {
		g, err := New(smallCfg(), buildKernels(t, "a"))
		if err != nil {
			t.Fatal(err)
		}
		c := &chainController{pending: first, left: links}
		g.SetController(c)
		g.SetEventWheel(wheel)
		g.Run(20_000)
		return c
	}
	want := make([]int64, links+1)
	for i := range want {
		want[i] = first + int64(i)
	}
	on, off := run(true), run(false)
	if !reflect.DeepEqual(on.Hits, want) {
		t.Fatalf("wheel run fired %v, want %v (a link was lost)", on.Hits, want)
	}
	if !reflect.DeepEqual(on.Hits, off.Hits) {
		t.Fatalf("wheel %v and legacy %v chains diverged", on.Hits, off.Hits)
	}
}

// TestWheelWakeAllDuringDrain drains an SM mid-run (its warps context
// save and the SM blocks) and fires WakeAll while the drain's restore is
// still pending. The wake must re-arm sleeping schedulers without
// disturbing cycle-exactness.
func TestWheelWakeAllDuringDrain(t *testing.T) {
	const cycles = 25_000
	events := []int64{5_000, 5_050}
	act := func(g *GPU, now int64, idx int) {
		switch idx {
		case 0:
			g.DrainSM(now, 1)
		case 1:
			g.WakeAll(now)
			g.RequestDispatch()
		}
	}
	run := func(wheel bool) *GPU {
		g := coRun(t)
		g.SetController(&scriptedController{g: g, events: events, act: act})
		g.SetEventWheel(wheel)
		g.Run(cycles)
		return g
	}
	ref, g := run(false), run(true)
	if ref.Stats[0].ThreadInstrs == 0 || ref.Stats[1].ThreadInstrs == 0 {
		t.Fatal("no progress after drain + WakeAll")
	}
	for slot := range ref.Stats {
		if !reflect.DeepEqual(*ref.Stats[slot], *g.Stats[slot]) {
			t.Errorf("stats[%d] diverged\nwheel:  %+v\nlegacy: %+v", slot, *g.Stats[slot], *ref.Stats[slot])
		}
	}
	for _, g := range []*GPU{ref, g} {
		if msg := g.CheckInvariants(); msg != "" {
			t.Error(msg)
		}
	}
}
