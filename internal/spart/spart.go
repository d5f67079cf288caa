// Package spart implements the paper's main baseline: QoS management for
// spatially partitioned multitasking (Aguilera et al., "QoS-aware dynamic
// resource allocation for spatial-multitasking GPUs"). Every SM is owned
// by exactly one kernel; a hill-climbing controller moves whole SMs
// between kernels to chase QoS goals. The granularity of one SM is the
// baseline's fundamental limitation the paper exploits (Sections 4.2-4.4):
// an SM cannot be divided between a QoS and a non-QoS kernel, and memory
// bandwidth is not partitioned at all.
package spart

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/gpu"
)

// Controller hill-climbs an SM partition toward the QoS goals.
type Controller struct {
	g        *gpu.GPU
	goals    []float64
	isolated []float64 // isolated IPCs for the initial partition (may be nil)
	isQoS    []bool

	owner       []int  // smID -> slot
	mask        []bool // applyMasks' scratch
	every       int    // decision period in epochs
	epochCount  int
	marginScale float64
}

// New builds a controller for g. goals[slot] is the absolute IPC goal
// (0 = non-QoS), mirroring qos.New. isolated[slot], when non-nil, is each
// kernel's isolated IPC: the controller seeds the initial partition
// proportionally to goal/isolated, the information the profiling-based
// baseline has (Aguilera et al. use offline profiles). Pass nil for an
// equal initial split. A non-nil prev, a controller no run uses any more,
// is rebuilt in place, its storage reused; nil builds afresh. On error
// prev is left as it was.
func New(g *gpu.GPU, goals, isolated []float64, prev *Controller) (*Controller, error) {
	if len(goals) != len(g.Kernels) {
		return nil, errors.New("spart: goals length must match kernels")
	}
	if isolated != nil && len(isolated) != len(goals) {
		return nil, errors.New("spart: isolated length must match goals")
	}
	hasQoS := false
	for slot, goal := range goals {
		if goal < 0 {
			return nil, fmt.Errorf("spart: negative goal for slot %d", slot)
		}
		hasQoS = hasQoS || goal > 0
	}
	if !hasQoS {
		return nil, errors.New("spart: no QoS kernel among goals")
	}
	if len(goals) > g.Cfg.NumSMs {
		return nil, errors.New("spart: more kernels than SMs")
	}
	c := prev
	if c == nil {
		c = new(Controller)
	}
	*c = Controller{
		g:           g,
		goals:       append(c.goals[:0], goals...),
		isolated:    append(c.isolated[:0], isolated...),
		isQoS:       c.isQoS[:0],
		owner:       slices.Grow(c.owner[:0], g.Cfg.NumSMs)[:g.Cfg.NumSMs],
		mask:        slices.Grow(c.mask[:0], g.Cfg.NumSMs)[:g.Cfg.NumSMs],
		every:       max(g.Cfg.SpartDecisionEpochs, 1),
		marginScale: 1.02,
	}
	for _, goal := range goals {
		c.isQoS = append(c.isQoS, goal > 0)
	}
	return c, nil
}

// Install partitions the SMs among the kernels and wires the controller
// into the GPU. No quota gate is used: within its partition a kernel runs
// unmanaged. With isolated IPCs available the initial split gives each
// QoS kernel roughly goal/isolated of the SMs (profile-seeded start);
// otherwise SMs are split equally. Every kernel keeps at least one SM.
func (c *Controller) Install() {
	n := len(c.goals)
	numSMs := c.g.Cfg.NumSMs
	want := make([]int, n)
	assigned := 0
	if len(c.isolated) == n {
		for slot, goal := range c.goals {
			if goal > 0 && c.isolated[slot] > 0 {
				frac := goal / c.isolated[slot]
				if frac > 1 {
					frac = 1
				}
				want[slot] = int(frac * float64(numSMs))
			}
		}
	}
	for slot := range want {
		if want[slot] < 1 {
			want[slot] = 1
		}
		assigned += want[slot]
	}
	// Scale down if oversubscribed; distribute any remainder equally.
	for assigned > numSMs {
		big := 0
		for slot := range want {
			if want[slot] > want[big] {
				big = slot
			}
		}
		want[big]--
		assigned--
	}
	for assigned < numSMs {
		// Prefer growing non-QoS kernels with the remainder, else the
		// smallest QoS kernel.
		best := -1
		for slot := range want {
			if !c.isQoS[slot] && (best < 0 || want[slot] < want[best]) {
				best = slot
			}
		}
		if best < 0 {
			for slot := range want {
				if best < 0 || want[slot] < want[best] {
					best = slot
				}
			}
		}
		want[best]++
		assigned++
	}
	i := 0
	for slot := range want {
		for j := 0; j < want[slot]; j++ {
			c.owner[i] = slot
			i++
		}
	}
	c.applyMasks()
	c.g.SetController(c)
}

// applyMasks projects the ownership vector onto per-kernel SM masks.
func (c *Controller) applyMasks() {
	for slot := range c.goals {
		for i, o := range c.owner {
			c.mask[i] = o == slot
		}
		c.g.SetMask(slot, c.mask)
	}
}

// SMsOf returns how many SMs slot currently owns.
func (c *Controller) SMsOf(slot int) int {
	n := 0
	for _, o := range c.owner {
		if o == slot {
			n++
		}
	}
	return n
}

// OnCycle implements gpu.Controller; Spart has no per-cycle work.
func (c *Controller) OnCycle(now int64) {}

// NextControlEvent implements gpu.Controller: with no per-cycle
// work, Spart never schedules a control event — repartitioning decisions
// all happen in OnEpoch, which the event wheel always processes.
func (c *Controller) NextControlEvent(now int64) int64 { return gpu.NoEvent }

// OnEpoch runs one hill-climbing step every decision period: give an SM
// to the most deficient QoS kernel, or return an SM to a non-QoS kernel
// when every QoS kernel has margin to spare.
func (c *Controller) OnEpoch(now int64) {
	c.epochCount++
	if c.epochCount%c.every != 0 {
		return
	}
	if c.g.Engine.Pending(now) {
		return // a repartition is still draining
	}

	// Most deficient QoS kernel.
	needy, worst := -1, 1.0
	for slot, goal := range c.goals {
		if !c.isQoS[slot] || goal <= 0 {
			continue
		}
		ratio := c.g.IPC(slot) / goal
		if ratio < 1 && ratio < worst {
			needy, worst = slot, ratio
		}
	}
	if needy >= 0 {
		if donor := c.pickDonor(now, needy); donor >= 0 {
			c.moveSM(now, donor, needy)
		}
		return
	}

	// All QoS goals met: if a QoS kernel would still meet its goal with
	// one SM fewer, return an SM to the smallest non-QoS kernel.
	recv := c.smallestNonQoS()
	if recv < 0 {
		return
	}
	for slot, goal := range c.goals {
		if !c.isQoS[slot] {
			continue
		}
		n := c.SMsOf(slot)
		if n <= 1 {
			continue
		}
		hist := c.g.IPC(slot)
		if hist*float64(n-1)/float64(n) > goal*c.marginScale {
			c.moveSM(now, slot, recv)
			return
		}
	}
}

// pickDonor chooses the kernel to shrink: the non-QoS kernel with the
// most SMs, else a QoS kernel whose margin survives losing one SM.
func (c *Controller) pickDonor(now int64, needy int) int {
	donor, most := -1, 1
	for slot := range c.goals {
		if slot == needy || c.isQoS[slot] {
			continue
		}
		if n := c.SMsOf(slot); n > most {
			donor, most = slot, n
		}
	}
	if donor >= 0 {
		return donor
	}
	for slot, goal := range c.goals {
		if slot == needy || !c.isQoS[slot] {
			continue
		}
		n := c.SMsOf(slot)
		if n <= 1 {
			continue
		}
		hist := c.g.IPC(slot)
		if hist*float64(n-1)/float64(n) > goal*c.marginScale {
			return slot
		}
	}
	return -1
}

// smallestNonQoS returns the non-QoS slot owning the fewest SMs, or -1.
func (c *Controller) smallestNonQoS() int {
	best, fewest := -1, 1<<30
	for slot := range c.goals {
		if c.isQoS[slot] {
			continue
		}
		if n := c.SMsOf(slot); n < fewest {
			best, fewest = slot, n
		}
	}
	return best
}

// moveSM transfers one SM from donor to recv: the donor's highest-index
// SM is drained (whole-SM context switch) and its mask flips to recv.
func (c *Controller) moveSM(now int64, donor, recv int) {
	for i := len(c.owner) - 1; i >= 0; i-- {
		if c.owner[i] != donor {
			continue
		}
		c.g.DrainSM(now, i)
		c.owner[i] = recv
		c.g.Tracer().SMMove(now, i, recv)
		c.applyMasks()
		return
	}
}
