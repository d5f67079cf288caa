package sm

import (
	"testing"
	"unsafe"
)

// TestWarpFitsCacheLine: a warp context is the first thing an issue
// touches (the winner's body, pc and readyAt), and every dispatched TB
// allocates one per warp, almost none of which retire inside a co-run's
// window. At most 64 bytes, one cache line on a 64-bit target, it costs
// one line per issue and 64 bytes per warp of every dispatch.
func TestWarpFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Warp{}); n > 64 {
		t.Fatalf("sm.Warp is %d bytes, over 64: a context no longer fits one cache line, an issue may touch two, "+
			"and every dispatched TB allocates %d more bytes per warp; derive the new field from tb or narrow one", n, n-64)
	}
}

// TestDispatchAllocatesTBAndOneBlock: once the scheduler lists and the
// resident list have grown to their working size, placing a TB allocates
// the TB and one block of its warp contexts, nothing per warp.
func TestDispatchAllocatesTBAndOneBlock(t *testing.T) {
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
		if got := testing.AllocsPerRun(100, place); got != 2 {
			t.Errorf("%d-warp TB: Dispatch allocates %v objects per TB, want 2 (the TB and its []Warp block)", warps, got)
		}
	}
}
