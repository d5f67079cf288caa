package qos

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// TestElasticEpochRecordsAgree is the regression test for the
// epoch-roll accounting bug: Elastic used to restart epochs by topping up
// per-SM counters locally while the GPU kept rolling on its own fixed
// schedule, so the recorded epochs never lined up with the intervals the
// controller actually managed (and a forced restart landing near a
// boundary double-rolled). With ForceEpochRoll the traced epoch_roll
// events, the scheduled epoch clock, and Elastic's early restarts must all
// describe the same intervals:
//
//   - scheduled rolls close an interval of exactly EpochLength cycles;
//   - every early restart closes a strictly shorter interval;
//   - the number of short intervals equals the number of elastic_epoch
//     events, which in turn equals the tracer's epochs_forced counter;
//   - scheduled + forced rolls account for every epoch_roll event.
func TestElasticEpochRecordsAgree(t *testing.T) {
	iso := isolatedIPC(t, 40_000)
	g := newGPU(t, "a", "b")
	tr := trace.New(trace.DefaultRingSize)
	g.SetTracer(tr)
	goals := []float64{0.3 * iso, 0}
	SetupFineGrained(g, goals, []float64{0.3, 0})
	m, err := New(g, Elastic, goals, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Install()
	g.RunCtx(context.Background(), 40_000)

	early := countKind(t, tr, trace.KindElasticEpoch)
	if early == 0 {
		t.Fatal("elastic never restarted an epoch early; test needs a forced roll")
	}
	var ends []int64 // slot 0's epoch-end cycles
	for _, e := range tr.Events() {
		if e.Kind == trace.KindEpochRoll && e.Slot == 0 {
			ends = append(ends, e.Cycle)
		}
	}
	if len(ends) != g.EpochIndex() {
		t.Fatalf("slot 0 has %d epoch rolls, GPU rolled %d epochs", len(ends), g.EpochIndex())
	}

	epochLen := g.Cfg.EpochLength
	short, prev := 0, int64(0)
	for i, end := range ends {
		gap := end - prev
		if gap > epochLen {
			t.Fatalf("epoch %d spans %d cycles (> EpochLength %d): a forced roll failed to reset the epoch clock",
				i, gap, epochLen)
		}
		if gap < epochLen {
			short++
		}
		prev = end
	}
	if short != early {
		t.Fatalf("%d short epochs traced, but %d elastic_epoch events: early restarts and epoch rolls disagree",
			short, early)
	}

	forced := tr.Registry().Counter("epochs_forced").Value()
	scheduled := tr.Registry().Counter("epochs").Value()
	if int(forced) != early {
		t.Fatalf("epochs_forced counter = %v, %d elastic_epoch events", forced, early)
	}
	if int(forced+scheduled) != g.EpochIndex() {
		t.Fatalf("scheduled (%v) + forced (%v) rolls != %d total epochs", scheduled, forced, g.EpochIndex())
	}
}

// TestForcedRollDefersScheduledRoll pins the double-roll fix directly: a
// forced roll must push the next scheduled roll a full epoch out, so the
// two can never fire for the same interval.
func TestForcedRollDefersScheduledRoll(t *testing.T) {
	g := newGPU(t, "a", "b")
	epochLen := g.Cfg.EpochLength
	if g.NextEpochAt() != epochLen {
		t.Fatalf("fresh GPU schedules first roll at %d, want %d", g.NextEpochAt(), epochLen)
	}
	g.RunCtx(context.Background(), 100) // mid-epoch
	before := g.EpochIndex()
	g.ForceEpochRoll(g.Now)
	if g.EpochIndex() != before+1 {
		t.Fatal("ForceEpochRoll did not roll the epoch")
	}
	if want := g.Now + epochLen; g.NextEpochAt() != want {
		t.Fatalf("next scheduled roll at %d after a forced roll at %d, want %d",
			g.NextEpochAt(), g.Now, want)
	}
}
