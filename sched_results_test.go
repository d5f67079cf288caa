package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// schedCase is one pinned co-run; draw is its index among the draws.
type schedCase struct {
	draw   int
	label  string
	specs  []core.KernelSpec
	scheme core.Scheme
}

// schedSlots is the length of the scheme cycle: the seven schemes of
// core.Schemes() plus the slot of the deleted SMK fairness scheme. That
// slot's mixes are still drawn, then dropped, so every other row keeps
// its mix and its draw index.
const schedSlots = 8

// schedCases draws n co-runs by seed, cycling through schedSlots slots
// so each scheme of core.Schemes() is met n/8 times: two in four are
// pairs from workloads.Pairs(), one is an open-world pair (infer or rtdet
// as the QoS kernel), one a trio from workloads.Trios() with one or two
// QoS members. Goals come from the 0.05 grid over 0.20..0.95: the low end
// runs quotas dry early (gate-stalled SMs), the high end keeps every
// scheduler issuing.
func schedCases(seed uint64, n int) []schedCase {
	src := rng.New(seed)
	goal := func() float64 { return 0.20 + 0.05*float64(src.Intn(16)) }
	pairs, open, trios := workloads.Pairs(), workloads.OpenWorldPairs(), workloads.Trios()
	schemes := core.Schemes()
	cases := make([]schedCase, 0, n)
	for i := 0; i < n; i++ {
		c := schedCase{draw: i}
		switch i % 4 {
		case 2:
			p := open[src.Intn(len(open))]
			c.specs = []core.KernelSpec{{Workload: p.QoS, GoalFrac: goal()}, {Workload: p.NonQoS}}
		case 3:
			tr := trios[src.Intn(len(trios))]
			c.specs = []core.KernelSpec{{Workload: tr.A, GoalFrac: goal()}, {Workload: tr.B}, {Workload: tr.C}}
			if src.Intn(2) == 1 {
				c.specs[1].GoalFrac = goal()
			}
		default:
			p := pairs[src.Intn(len(pairs))]
			c.specs = []core.KernelSpec{{Workload: p.QoS, GoalFrac: goal()}, {Workload: p.NonQoS}}
		}
		if i%schedSlots >= len(schemes) {
			continue
		}
		c.scheme = schemes[i%schedSlots]
		names := make([]string, len(c.specs))
		for j, s := range c.specs {
			names[j] = fmt.Sprintf("%s:%.2f", s.Workload, s.GoalFrac)
		}
		c.label = c.scheme.Name() + " " + strings.Join(names, "+")
		cases = append(cases, c)
	}
	return cases
}

// TestSchedResultsPinned pins what the simulator computes, not how: 21
// seeded co-runs on config.Base() and 7 on config.Scale56() (32 warps
// per scheduler, where a scheduler's warp list fills and compacts) over a
// 30k-cycle window, each scheme met 4 times — Spart's drain / preempt /
// resume, Rollover-Time's deferred restores and unmanaged sharing
// included — each reduced to the SHA-256 of its marshalled core.Result and compared
// with testdata/sched_results.golden. The wheel-equivalence suite
// compares two steppers over the same warp scheduler and the golden
// trace is one mix; this file is the oracle for a change to the
// scheduler itself: which warp issues in which cycle decides every
// statistic in a Result, so a rewrite that moves one issue fails here.
// It is also the workload `make profile` profiles. Regenerate (only for
// an intended behaviour change) with
// `go test -run '^TestSchedResultsPinned$' -update-golden .`.
func TestSchedResultsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var got bytes.Buffer
	for _, grid := range []struct {
		name string
		cfg  config.GPU
		seed uint64
		n    int
	}{
		{"base", config.Base(), 19, 24},
		{"scale56", config.Scale56(), 56, 8},
	} {
		s, err := core.NewSession(core.WithGPU(grid.cfg), core.WithWindow(30_000))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range schedCases(grid.seed, grid.n) {
			res, err := s.Run(context.Background(), c.specs, c.scheme)
			if err != nil {
				t.Fatalf("%s/%02d %s: %v", grid.name, c.draw, c.label, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s/%02d %s: %v", grid.name, c.draw, c.label, err)
			}
			fmt.Fprintf(&got, "%s/%02d %s %x\n", grid.name, c.draw, c.label, sha256.Sum256(b))
		}
	}

	checkGolden(t, filepath.Join("testdata", "sched_results.golden"), got.Bytes())
}
