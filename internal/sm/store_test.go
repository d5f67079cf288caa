package sm

import (
	"testing"

	"repro/internal/rng"
)

// TestStoreHandsOutOnlyUnlistedBlocks drives one SM through seeded
// dispatches, retirements, preemptions, resumes and drains, and checks at
// every placement that the new TB's warp block holds no warp a scheduler
// list named just before: a block returns to the store when compaction
// drops the last of its warps, not when its TB retires. It requires that
// blocks were reused, so the check is not vacuous.
func TestStoreHandsOutOnlyUnlistedBlocks(t *testing.T) {
	for _, scheds := range []int{1, 2} {
		cfg := tinyCfg()
		cfg.WarpSchedulers = scheds
		s, _, _ := newSM(t, cfg, barrierProfile(), memProfile())
		src := rng.New(uint64(scheds))
		var saved []*TBContext
		nextGrid := []int{0, 0}
		seen := map[*Warp]bool{}
		reused := 0
		place := func(now int64, slot int) {
			listed := map[*Warp]bool{}
			for i := range s.scheds {
				for _, w := range s.scheds[i].warps {
					listed[w] = true
				}
			}
			var tb *TB
			if n := len(saved); n > 0 && saved[n-1].Slot == slot {
				tb = s.Dispatch(now, slot, saved[n-1].GridIdx, saved[n-1])
				saved = saved[:n-1]
			} else {
				tb = s.Dispatch(now, slot, nextGrid[slot], nil)
				nextGrid[slot]++
			}
			for i := range tb.Warps {
				if listed[&tb.Warps[i]] {
					t.Fatalf("%d schedulers, cycle %d: Dispatch handed out a block whose warp %d a scheduler list still holds", scheds, now, i)
				}
			}
			if seen[&tb.Warps[0]] {
				reused++
			}
			seen[&tb.Warps[0]] = true
		}
		for now := int64(0); now < 20_000; now++ {
			switch src.Intn(200) {
			case 0:
				if ctx, _, ok := s.PreemptTB(now, src.Intn(2)); ok {
					saved = append(saved, ctx)
				}
			case 1:
				ctxs, _ := s.DrainAll(now)
				saved = append(saved, ctxs...)
			}
			for slot := range nextGrid {
				for s.FreeFor(slot) {
					place(now, slot)
				}
			}
			s.Cycle(now)
			if msg := s.CheckInvariants(); msg != "" {
				t.Fatalf("%d schedulers, cycle %d: %s", scheds, now, msg)
			}
		}
		if reused == 0 {
			t.Fatalf("%d schedulers: no block was ever reused", scheds)
		}
		t.Logf("%d schedulers: %d placements reused a block, %d blocks in all", scheds, reused, len(seen))
	}
}
