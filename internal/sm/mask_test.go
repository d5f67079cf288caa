package sm

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/rng"
)

// checkMasks validates the scheduler representation (see scheduler) and
// the SM's completion heap with the counters and cached top that mirror
// it: it returns "" or a description of the first violated invariant.
func checkMasks(s *SM) string {
	for si := range s.scheds {
		if msg := checkScheduler(s, si, &s.scheds[si]); msg != "" {
			return fmt.Sprintf("scheduler %d: %s", si, msg)
		}
	}
	if msg := checkTop(&s.done); msg != "" {
		return "completion heap: " + msg
	}
	misses, txns := 0, make([]int, len(s.txnFlight))
	for _, e := range s.done.q {
		if tag := int(e & tagMask); tag == 0 {
			misses++
		} else {
			txns[tag-1]++
		}
	}
	total := 0
	for slot, n := range txns {
		if n != s.txnFlight[slot] {
			return fmt.Sprintf("txnFlight[%d] = %d, the heap holds %d entries tagged %d", slot, s.txnFlight[slot], n, slot+1)
		}
		total += n
	}
	if misses != s.outstanding || total != s.txnTotal {
		return fmt.Sprintf("outstanding %d, txnTotal %d; the heap holds %d misses and %d transactions",
			s.outstanding, s.txnTotal, misses, total)
	}
	return ""
}

// checkTop validates a timeHeap's cached top: the earliest time of any
// entry, noWake when there is none.
func checkTop(h *timeHeap) string {
	want := noWake
	for _, e := range h.q {
		want = min(want, e>>tagBits)
	}
	if h.top != want || (len(h.q) > 0 && h.q[0]>>tagBits != want) {
		return fmt.Sprintf("cached top %d, earliest of %d entries %d", h.top, len(h.q), want)
	}
	return ""
}

// walkIdleWarps is the sampler SampleIdleWarps replaced — a walk over
// every warp list — kept as its oracle. It returns the per-slot ready
// counts besides accumulating the attributed excess into out.
func walkIdleWarps(s *SM, now int64, out []int64) []int {
	ready := make([]int, len(s.kernels))
	total := 0
	for i := range s.scheds {
		for _, w := range s.scheds[i].warps {
			if w.done || w.atBarrier || w.readyAt > now || !s.gate.CanIssue(s.ID, w.slot) {
				continue
			}
			ready[w.slot]++
			total++
		}
	}
	if excess := total - s.cfg.WarpSchedulers; excess > 0 {
		for slot, r := range ready {
			out[slot] += int64(excess * r / total)
		}
	}
	return ready
}

func checkScheduler(s *SM, si int, sch *scheduler) string {
	n := len(sch.warps)
	if n > maskBits {
		return fmt.Sprintf("%d warps in the list, masks hold %d", n, maskBits)
	}
	if msg := checkTop(&sch.wakeQ); msg != "" {
		return "wake heap: " + msg
	}
	// Where warps are filed: ready, the buckets (each warp in one at
	// most), and the heap entries that still name their warp's readyAt.
	var buckets, heaped, slotted uint64
	for i, m := range sch.wheel {
		if (m != 0) != (sch.occupied>>i&1 != 0) {
			return fmt.Sprintf("occupied bit %d disagrees with wheel[%d]=%#x", i, i, m)
		}
		if buckets&m != 0 {
			return fmt.Sprintf("warps %#x are in two buckets", buckets&m)
		}
		buckets |= m
	}
	for _, e := range sch.wakeQ.q {
		at, pos := e>>tagBits, int(e&tagMask)
		if pos >= n {
			return fmt.Sprintf("heap entry at %d names position %d of %d", at, pos, n)
		}
		w := sch.warps[pos]
		if w.done || w.atBarrier || w.readyAt != at {
			continue // stale: drain drops it
		}
		if heaped>>w.pos&1 != 0 {
			return fmt.Sprintf("warp %d has two live heap entries", w.pos)
		}
		heaped |= 1 << w.pos
	}
	for k, m := range sch.slots {
		if slotted&m != 0 {
			return fmt.Sprintf("warps %#x are in slot %d and another", slotted&m, k)
		}
		slotted |= m
	}
	every := sch.ready | sch.ld | sch.st | buckets | slotted
	if n < maskBits && every>>n != 0 {
		return fmt.Sprintf("bits %#x at or past len(warps)=%d", every>>n<<n, n)
	}
	for i, w := range sch.warps {
		bit := uint64(1) << i
		if int(w.pos) != i || w.schedIdx != si {
			return fmt.Sprintf("warps[%d] believes it is scheduler %d position %d", i, w.schedIdx, w.pos)
		}
		if w.done {
			if every&bit != 0 {
				return fmt.Sprintf("done warp %d still has a bit set", i)
			}
			continue
		}
		if sch.slots[w.slot]&bit == 0 {
			return fmt.Sprintf("live warp %d missing from slot mask %d", i, w.slot)
		}
		if w.atBarrier {
			if (sch.ready|buckets|sch.ld|sch.st)&bit != 0 {
				return fmt.Sprintf("warp %d is at a barrier and filed", i)
			}
			continue
		}
		filedReady, filedBucket, filedHeap := sch.ready&bit != 0, buckets&bit != 0, heaped&bit != 0
		places := 0
		for _, filed := range []bool{filedReady, filedBucket, filedHeap} {
			if filed {
				places++
			}
		}
		if places != 1 {
			return fmt.Sprintf("warp %d (readyAt %d, drained %d) filed in %d places (ready %v, bucket %v, heap %v)",
				i, w.readyAt, sch.drained, places, filedReady, filedBucket, filedHeap)
		}
		ahead := w.readyAt - sch.drained
		switch {
		case filedReady && ahead > 0:
			return fmt.Sprintf("warp %d is ready with readyAt %d > drained %d", i, w.readyAt, sch.drained)
		case filedBucket && sch.wheel[w.readyAt&(wheelSlots-1)]&bit == 0:
			return fmt.Sprintf("warp %d (readyAt %d) is in another time's bucket", i, w.readyAt)
		case filedBucket && (ahead <= 0 || ahead >= wheelSlots):
			return fmt.Sprintf("warp %d in a bucket with readyAt %d, drained %d", i, w.readyAt, sch.drained)
		case filedHeap && ahead <= 0:
			return fmt.Sprintf("warp %d matured at %d but sits in the heap (drained %d)", i, w.readyAt, sch.drained)
		}
		op := w.body[w.pc].Op
		if (sch.ld&bit != 0) != (op == isa.OpLdGlobal) || (sch.st&bit != 0) != (op == isa.OpStGlobal) {
			return fmt.Sprintf("warp %d next op %v, class bits ld=%v st=%v", i, op, sch.ld&bit != 0, sch.st&bit != 0)
		}
	}
	if l := sch.last; l&(l-1) != 0 || l&^slotted != 0 {
		return fmt.Sprintf("last = %#x is not one bit of a live listed warp (live %#x)", l, slotted)
	}
	// gated is refreshGate's: exact over live warps until something sets
	// gateDirty (a dead warp's bit may linger until compaction).
	if !s.gateDirty {
		var denied uint64
		for k, ok := range s.gateOK {
			if !ok {
				denied |= sch.slots[k]
			}
		}
		if sch.gated&slotted != denied {
			return fmt.Sprintf("gated = %#x over live warps %#x, denied slots hold %#x", sch.gated, slotted, denied)
		}
	}
	return ""
}

// refScheduler is GTO with the quota gate in front, written against raw
// warp and SM state: it knows nothing of the scheduler's masks, wheel or
// sleep times. With one scheduler per SM the state before a cycle is the
// step's whole input, so expect can name the warp Cycle must issue and
// issued, afterwards, the warp it did.
type refScheduler struct {
	last   *Warp // greedy target: the last issuer, unless it issued a barrier
	before []warpMark
}

// warpMark is where a listed warp stood before the cycle.
type warpMark struct {
	w         *Warp
	pc, iter  int
	atBarrier bool
	op        isa.Op
}

// expect returns the warp Cycle(now) must issue, nil for none: the last
// issuer again if its next instruction is not global memory, else the
// oldest warp that latency, barriers and the gate (denied, as the SM will
// have it cached when it steps) let issue and no structural block strikes.
func (r *refScheduler) expect(s *SM, now int64, denied []bool) *Warp {
	r.before = r.before[:0]
	for _, w := range s.scheds[0].warps {
		r.before = append(r.before, warpMark{w, w.pc, w.iter, w.atBarrier, w.body[w.pc].Op})
	}
	if now < s.BlockedUntil {
		return nil
	}
	// What the completions due by now leave in flight.
	misses, total, flight := s.outstanding, s.txnTotal, append([]int(nil), s.txnFlight...)
	for _, e := range s.done.q {
		if e>>tagBits > now {
			continue
		}
		if tag := int(e & tagMask); tag == 0 {
			misses--
		} else {
			flight[tag-1]--
			total--
		}
	}
	eligible := func(w *Warp) bool {
		return !w.done && !w.atBarrier && w.readyAt <= now && !denied[w.slot]
	}
	if w := r.last; w != nil && eligible(w) && !w.body[w.pc].Op.IsGlobalMem() {
		return w
	}
	for _, w := range s.scheds[0].warps {
		op := w.body[w.pc].Op
		switch {
		case !eligible(w):
		case !op.IsGlobalMem():
			return w
		case s.cfg.MemPortsPerSM <= 0: // ports: the one scheduler issues first
		case op == isa.OpLdGlobal && misses >= s.cfg.MSHRsPerSM:
		case total >= s.cfg.TxnFlightCapPerSM && flight[w.slot] >= s.txnCapCache:
		default:
			return w
		}
	}
	return nil
}

// issued returns the warp the cycle issued, nil for none: the one that was
// not waiting at a barrier and whose pc, iteration or barrier flag moved (a
// barrier release moves warps too, but those were waiting).
func (r *refScheduler) issued() *Warp {
	for _, m := range r.before {
		if w := m.w; !m.atBarrier && (w.pc != m.pc || w.iter != m.iter || w.atBarrier) {
			r.last = w
			if m.op == isa.OpBarrier {
				r.last = nil
			}
			return w
		}
	}
	return nil
}

func (w *Warp) String() string {
	return fmt.Sprintf("slot %d warp %d (pc %d, iter %d, readyAt %d)", w.slot, w.gid, w.pc, w.iter, w.readyAt)
}

// flipGate is a QuotaGate whose per-slot answer the test flips.
type flipGate struct{ deny []bool }

func (g *flipGate) CanIssue(_, slot int) bool { return !g.deny[slot] }
func (g *flipGate) OnIssue(int, int, int)     {}

// maskProfiles are the four behaviours the scheduler masks must follow:
// pure ALU work (short backoffs, wheel only), frequent barriers (warps
// that are nowhere), divergence, and global memory (class masks, misses
// beyond the wheel's horizon). 64-thread TBs fill the SM's 64 warp
// contexts exactly at the 32-TB limit.
func maskProfiles() []kern.Profile {
	alu := computeProfile()
	bar := barrierProfile()
	bar.BarrierEvery = 4
	div := computeProfile()
	div.Name = "div"
	div.DivergenceFrac = 0.4
	div.DepDensity = 0.5
	div.FracSFU = 0.1
	mem := memProfile()
	mem.Iterations = 8
	return []kern.Profile{alu, bar, div, mem}
}

// TestSchedulerMaskInvariants drives single SMs through seeded random
// histories — two or three kernels drawn from maskProfiles, a quota gate
// that flips per slot, TB preemptions, whole-SM drains, resumed and
// deferred dispatches, deferrals of running TBs — and validates every
// scheduler mask after every cycle, and the popcount idle-warp sampler
// against the list walk at every sample boundary. One, two and four
// schedulers: with one, the warp list holds all 64 contexts and Dispatch
// must compact it to make room. Seed 5 adds a shared-memory kernel under
// SharedMemLat = 40: a result latency the wheel cannot hold, so dependent
// shared-memory ops decode without a delay and file through the wake heap.
func TestSchedulerMaskInvariants(t *testing.T) {
	const cycles = 25_000
	const sampleEvery = 100 // Base: EpochLength / IdleWarpSamples
	for _, scheds := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 5; seed++ {
			scheds, seed := scheds, seed
			t.Run(fmt.Sprintf("scheds%d/seed%d", scheds, seed), func(t *testing.T) {
				src := rng.New(rng.Mix(seed, uint64(scheds)))
				cfg := tinyCfg()
				cfg.WarpSchedulers = scheds
				if seed%2 == 0 {
					cfg.MSHRsPerSM = 8 // few enough to fill: the MSHR strike
				}
				pool := maskProfiles()
				for i := len(pool) - 1; i > 0; i-- {
					j := src.Intn(i + 1)
					pool[i], pool[j] = pool[j], pool[i]
				}
				if seed == 5 {
					cfg.SharedMemLat = 40
					shm := computeProfile()
					shm.Name = "shm"
					shm.FracShared = 0.4
					shm.DepDensity = 0.6
					pool[0] = shm
				}
				nslots := 2 + src.Intn(2)
				s, _, stats := newSM(t, cfg, pool[:nslots]...)
				gate := &flipGate{deny: make([]bool, nslots)}
				s.SetGate(gate)

				// A stand-in for the GPU's TB scheduler: it runs when a TB
				// retired and every 64 cycles, places saved contexts first
				// (deferred by a seeded restore time) and fresh TBs after,
				// one per slot per round.
				var saved []*TBContext
				nextGrid := make([]int, nslots)
				place := true
				s.OnTBComplete = func(int, int) { place = true }
				fill := func(now int64) {
					for progress := true; progress; {
						progress = false
						for slot := 0; slot < nslots; slot++ {
							if !s.FreeFor(slot) {
								continue
							}
							progress = true
							resumed := false
							for i, ctx := range saved {
								if ctx.Slot == slot {
									saved = append(saved[:i], saved[i+1:]...)
									tb := s.Dispatch(now, slot, ctx.GridIdx, ctx)
									s.DeferTB(tb, now+1+int64(src.Intn(300)))
									resumed = true
									break
								}
							}
							if !resumed {
								s.Dispatch(now, slot, nextGrid[slot], nil)
								nextGrid[slot]++
							}
						}
					}
				}

				var ref refScheduler
				sawFull, sawShrink, sampled := false, false, false
				lens := make([]int, scheds)
				for now := int64(0); now < cycles; now++ {
					switch r := src.Intn(300); r {
					case 0, 1:
						slot := src.Intn(nslots)
						gate.deny[slot] = !gate.deny[slot]
						s.Wake(now)
					case 2:
						if ctx, _, ok := s.PreemptTB(now, src.Intn(nslots)); ok {
							saved = append(saved, ctx)
						}
					case 3:
						if src.Intn(4) == 0 {
							ctxs, _ := s.DrainAll(now)
							saved = append(saved, ctxs...)
							s.BlockedUntil = now + int64(src.Intn(200))
						}
					case 4:
						if len(s.tbs) > 0 {
							s.DeferTB(s.tbs[src.Intn(len(s.tbs))], now+1+int64(src.Intn(100)))
						}
					}
					if place || now%64 == 0 {
						place = false
						fill(now)
					}
					if scheds == 1 {
						want := ref.expect(s, now, gate.deny)
						s.Cycle(now)
						if got := ref.issued(); got != want {
							t.Fatalf("seed %d cycle %d SM %d: the reference scheduler issues %v, Cycle issued %v", seed, now, s.ID, want, got)
						}
					} else {
						s.Cycle(now)
					}
					if now%sampleEvery == 0 && now >= s.BlockedUntil {
						got, want := make([]int64, nslots), make([]int64, nslots)
						ready := walkIdleWarps(s, now, want)
						s.SampleIdleWarps(now, got)
						if fmt.Sprint(s.sampleScratch, got) != fmt.Sprint(ready, want) {
							t.Fatalf("cycle %d: SampleIdleWarps counted %v ready, %v idle; the list walk %v and %v",
								now, s.sampleScratch, got, ready, want)
						}
						sampled = sampled || want[0] > 0
					}
					if msg := checkMasks(s); msg != "" {
						t.Fatalf("cycle %d: %s", now, msg)
					}
					if msg := s.CheckInvariants(); msg != "" {
						t.Fatalf("cycle %d: %s", now, msg)
					}
					for i := range s.scheds {
						n := len(s.scheds[i].warps)
						sawFull = sawFull || n == maskBits
						sawShrink = sawShrink || n < lens[i]
						lens[i] = n
					}
				}
				var issued int64
				for _, st := range stats {
					issued += st.WarpInstrs
				}
				if issued == 0 {
					t.Fatal("nothing issued: the history exercised no scheduling")
				}
				if !sawShrink {
					t.Fatal("no warp list was ever compacted")
				}
				if !sampled {
					t.Fatal("no sample ever found idle warps")
				}
				if seed == 5 {
					slow := false
					for _, d := range s.kernels[0].body[:len(s.kernels[0].body)-1] {
						slow = slow || (d.Op.IsSharedMem() && d.delay == 0)
					}
					if !slow || stats[0].SharedInstrs == 0 {
						t.Fatal("no shared-memory op took the general path")
					}
				}
				if scheds == 1 && !sawFull {
					t.Fatal("the single scheduler's list never reached the mask width")
				}
			})
		}
	}
}

func TestSqueeze(t *testing.T) {
	for _, c := range []struct{ m, keep, want uint64 }{
		{0b1011, 0b1111, 0b1011},
		{0b1010, 0b1010, 0b11},
		{0b1010, 0b0110, 0b01},
		{1 << 63, 1<<63 | 1, 0b10},
		{^uint64(0), 0, 0},
		{0, ^uint64(0), 0},
	} {
		if got := squeeze(c.m, c.keep); got != c.want {
			t.Errorf("squeeze(%#b, %#b) = %#b, want %#b", c.m, c.keep, got, c.want)
		}
	}
}
