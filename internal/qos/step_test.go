package qos

import (
	"math"
	"testing"
)

// TestStep states the paper's epoch rules (Sections 3.4 and 3.5) on step
// alone, one rule a case, with no device. Slots 0 and 1 are QoS kernels
// with IPC goals 100 and 50, slot 2 a non-QoS kernel at artificial goal
// 10. In the baseline epoch (1 000 cycles) every slot used exactly the
// allowance it was granted, ran at its goal and left no quota, so α
// stays 1 and nothing carries; each case changes what its rule reads.
func TestStep(t *testing.T) {
	const epochLen, peak = 1000, 2048.0
	// quota is a QoS slot's quota at α under the default 1.5 % margin.
	quota := func(alpha, goal float64) float64 { return alpha * goal * epochLen * 1.015 }
	type out struct{ alpha, quota, carry, goal float64 } // goal: the artificial goal
	atGoal := []out{{1, quota(1, 100), 0, 0}, {1, quota(1, 50), 0, 0}, {1, 10 * epochLen, 0, 10}}
	cases := []struct {
		name   string
		scheme Scheme
		opts   Options
		edit   func(in []slotIn)
		want   []out
	}{
		{"Naive discards leftovers", Naive, Options{}, func(in []slotIn) {
			in[0].surplus, in[0].debt, in[2].surplus, in[2].debt = 5000, -300, 800, -50
		}, atGoal},
		{"α is IPCgoal/IPChistory", Rollover, Options{}, func(in []slotIn) { in[0].hist = 40 },
			[]out{{2.5, quota(2.5, 100), 0, 0}, atGoal[1], atGoal[2]}},
		{"α is at least 1", Rollover, Options{}, func(in []slotIn) { in[0].hist = 400 }, atGoal},
		{"α stops at the cap", Rollover, Options{AlphaCap: 4}, func(in []slotIn) { in[0].hist = 10 },
			[]out{{4, quota(4, 100), 0, 0}, atGoal[1], atGoal[2]}},
		{"no history gives the default cap", Rollover, Options{}, func(in []slotIn) { in[0].hist = 0 },
			[]out{{16, quota(16, 100), 0, 0}, atGoal[1], atGoal[2]}},
		{"Naive keeps α at 1", Naive, Options{}, func(in []slotIn) { in[0].hist = 40 }, atGoal},
		{"DisableHistory keeps α at 1", Rollover, Options{DisableHistory: true}, func(in []slotIn) { in[0].hist = 40 }, atGoal},
		{"Rollover carries only the QoS surplus", Rollover, Options{}, func(in []slotIn) {
			in[0].surplus, in[0].debt, in[2].surplus, in[2].debt = 5000, -300, 800, -50
		}, []out{{1, quota(1, 100), 5000, 0}, atGoal[1], atGoal[2]}},
		{"Rollover-Time carries only the QoS surplus", RolloverTime, Options{}, func(in []slotIn) {
			in[0].surplus, in[0].debt, in[2].surplus, in[2].debt = 5000, -300, 800, -50
		}, []out{{1, quota(1, 100), 5000, 0}, atGoal[1], atGoal[2]}},
		{"carry is bounded by one quota", Rollover, Options{}, func(in []slotIn) { in[1].surplus = 1e6 },
			[]out{atGoal[0], {1, quota(1, 50), quota(1, 50), 0}, atGoal[2]}},
		{"Elastic carries debt for every slot", Elastic, Options{}, func(in []slotIn) {
			in[0].surplus, in[0].debt, in[2].surplus, in[2].debt = 5000, -300, 800, -50
		}, []out{{1, quota(1, 100), -300, 0}, atGoal[1], {1, 10 * epochLen, -50, 10}}},
		{"a negative margin disables the default one", Rollover, Options{QuotaMargin: -1}, func([]slotIn) {},
			[]out{{1, 100 * epochLen, 0, 0}, {1, 50 * epochLen, 0, 0}, atGoal[2]}},
		{"a set margin replaces the default one", Rollover, Options{QuotaMargin: 0.1}, func([]slotIn) {},
			[]out{{1, 110 * epochLen, 0, 0}, {1, 55 * epochLen, 0, 0}, atGoal[2]}},
		// ½·10 + ½·(10 000/500 · 0.8 · 0.5) = 9.
		{"the artificial goal is ½·prev + ½·IPCepoch·∏ consumed/allowance", Rollover, Options{}, func(in []slotIn) {
			in[0].instrs, in[1].instrs = 80_000, 25_000
			for i := range in {
				in[i].dur = 500
			}
		}, []out{atGoal[0], atGoal[1], {1, 9 * epochLen, 0, 9}}},
		// ½·10 + ½·(20 000/1 000 · 1) = 15.
		{"a consumed fraction above 0.995 counts as 1", Rollover, Options{}, func(in []slotIn) {
			in[0].instrs, in[2].instrs = 99_600, 20_000
		}, []out{atGoal[0], atGoal[1], {1, 15 * epochLen, 0, 15}}},
		// ½·10 + ½·4 = 7.
		{"the artificial goal is at least NonQoSInitIPC", Rollover, Options{NonQoSInitIPC: 4}, func(in []slotIn) { in[2].instrs = 0 },
			[]out{atGoal[0], atGoal[1], {1, 7 * epochLen, 0, 7}}},
		// ½·10 + ½·2 048 = 1 029.
		{"the artificial goal is at most the peak IPC", Rollover, Options{}, func(in []slotIn) { in[2].instrs = 1e7 },
			[]out{atGoal[0], atGoal[1], {1, 1029 * epochLen, 0, 1029}}},
	}
	for _, c := range cases {
		st := []slotState{
			{goal: 100, isQoS: true, alpha: 1, allowance: 100 * epochLen},
			{goal: 50, isQoS: true, alpha: 1, allowance: 50 * epochLen},
			{alpha: 1, nonQoSGoal: 10, allowance: 10 * epochLen},
		}
		in := []slotIn{
			{instrs: 100 * epochLen, dur: epochLen, hist: 100},
			{instrs: 50 * epochLen, dur: epochLen, hist: 50},
			{instrs: 10 * epochLen, dur: epochLen, hist: 10},
		}
		c.edit(in)
		step(c.scheme, c.opts.resolved(), epochLen, peak, in, st)
		for slot, w := range c.want {
			sl := st[slot]
			got := out{sl.alpha, sl.quota, sl.carry, sl.nonQoSGoal}
			if !near(got.alpha, w.alpha) || !near(got.quota, w.quota) || !near(got.carry, w.carry) || !near(got.goal, w.goal) {
				t.Errorf("%s: slot %d: got %+v, want %+v", c.name, slot, got, w)
			}
			if sl.allowance != sl.quota+sl.carry {
				t.Errorf("%s: slot %d: allowance %v is not quota %v + carry %v", c.name, slot, sl.allowance, sl.quota, sl.carry)
			}
		}
	}
}

// near reports whether a and b agree to 12 significant digits: the
// expectations above are decimal arithmetic, step's binary.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
