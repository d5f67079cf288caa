package sm

import (
	"testing"
	"unsafe"
)

// TestWarpFitsCacheLine: a warp context is the first thing an issue
// touches (the winner's body, pc and readyAt), and every TB block the
// store holds has one per warp. At most 64 bytes, one cache line on a
// 64-bit target, it costs one line per issue and 64 bytes per warp of
// peak residency.
func TestWarpFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Warp{}); n > 64 {
		t.Fatalf("sm.Warp is %d bytes, over 64: a context no longer fits one cache line, an issue may touch two, "+
			"and every stored TB block holds %d more bytes per warp; derive the new field from tb or narrow one", n, n-64)
	}
}

// TestTBFitsCacheLine: a TB is the unit the store recycles and the
// dispatcher touches per placement; its header stays one cache line.
func TestTBFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(TB{}); n > 64 {
		t.Fatalf("sm.TB is %d bytes, over 64: narrow a counter or derive the new field", n)
	}
}

// TestDispatchReusesStoredBlocks: once the scheduler lists, the resident
// list and the store have grown to their working size, placing a TB
// allocates nothing: the TB and its warp block come from the store.
func TestDispatchReusesStoredBlocks(t *testing.T) {
	for _, warps := range []int{1, 4, 8} {
		p := computeProfile()
		p.ThreadsPerTB = 32 * warps
		s, _, _ := newSM(t, tinyCfg(), p)
		grid := 0
		place := func() {
			tb := s.Dispatch(0, 0, grid, nil)
			grid++
			// Retire it at once through the path a finished warp takes.
			for i := range tb.Warps {
				s.warpDone(0, &tb.Warps[i])
			}
		}
		for i := 0; i < 200; i++ {
			place()
		}
		if s.ResidentTBs(0) != 0 {
			t.Fatalf("%d-warp TB: %d TBs still resident after retiring every warp", warps, s.ResidentTBs(0))
		}
		if got := testing.AllocsPerRun(100, place); got != 0 {
			t.Errorf("%d-warp TB: Dispatch allocates %v objects per TB in steady state, want 0", warps, got)
		}
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
	}
}
