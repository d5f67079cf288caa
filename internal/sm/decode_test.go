package sm

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// suiteProfiles is every profile internal/workloads exports: the paper's
// ten benchmarks, the two open-world kernels and the four micro kernels.
func suiteProfiles(t *testing.T) []kern.Profile {
	t.Helper()
	ps := workloads.Profiles()
	for _, name := range []string{"infer", "rtdet"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return append(ps, workloads.Micro()...)
}

// decodeConfigs are the two shipped configurations plus one with result
// latencies the maturity wheel cannot hold: shared memory well past its
// horizon, the SFU exactly at it (the first delay that does not fit).
func decodeConfigs() map[string]config.GPU {
	slow := config.Base()
	slow.SharedMemLat = 40
	slow.SFULatency = wheelSlots
	return map[string]config.GPU{"base": config.Base(), "scale56": config.Scale56(), "shm40": slow}
}

// TestDecodeIsTheText re-derives, from the program text alone, what Decode
// stores per instruction — the way the general issue path reads it: the
// successor's DependsOnPrev picks result latency (by op) or the pipeline
// backoff, and only a fixed-latency, non-divergent instruction with a
// successor in its body and a delay inside the wheel may carry it.
func TestDecodeIsTheText(t *testing.T) {
	var sawFast, sawDivergent, sawAlt, sawTooLong, sawAtHorizon, sawShortShared bool
	for cfgName, cfg := range decodeConfigs() {
		lat := map[isa.Op]int64{
			isa.OpIAlu: cfg.ALULatency, isa.OpFAlu: cfg.ALULatency, isa.OpBranch: cfg.ALULatency,
			isa.OpSFU: cfg.SFULatency, isa.OpLdShared: cfg.SharedMemLat, isa.OpStShared: cfg.SharedMemLat,
		}
		for i, p := range suiteProfiles(t) {
			k := kern.MustBuild(i, p, workloads.Seed)
			progs, err := Decode(cfg, []*kern.Kernel{k})
			if err != nil {
				t.Fatal(err)
			}
			prog := progs[0]
			if (p.PhasePeriod > 0) != (&prog.alt[0] != &prog.body[0]) {
				t.Errorf("%s/%s: PhasePeriod %d, but alt is body: %v", cfgName, p.Name, p.PhasePeriod, &prog.alt[0] == &prog.body[0])
			}
			for iter := 0; iter < 3*p.PhasePeriod+2; iter++ {
				if &prog.bodyFor(iter)[0] != &decodedOf(prog, k.BodyFor(iter))[0] {
					t.Fatalf("%s/%s: iteration %d runs the wrong decoded body", cfgName, p.Name, iter)
				}
			}
			for which, text := range [][]isa.Instr{k.Body, k.BodyAlt} {
				body := decodedOf(prog, text)
				if len(body) != len(text) {
					t.Fatalf("%s/%s body %d: %d decoded instructions for %d", cfgName, p.Name, which, len(body), len(text))
				}
				sawAlt = sawAlt || (which == 1 && p.PhasePeriod > 0)
				for pc, in := range text {
					d := body[pc]
					at := fmt.Sprintf("%s/%s body %d pc %d (%v)", cfgName, p.Name, which, pc, in.Op)
					if d.Instr != in {
						t.Fatalf("%s: decoded %+v, text %+v", at, d.Instr, in)
					}
					wantLd, wantSt := uint64(0), uint64(0)
					switch in.Op {
					case isa.OpLdGlobal:
						wantLd = ^uint64(0)
					case isa.OpStGlobal:
						wantSt = ^uint64(0)
					}
					if d.ld != wantLd || d.st != wantSt {
						t.Fatalf("%s: class masks ld=%#x st=%#x", at, d.ld, d.st)
					}
					want := int64(0)
					if l, fixed := lat[in.Op]; fixed && !in.Divergent && pc+1 < len(text) {
						want = cfg.IssueBackoff
						if text[pc+1].DependsOnPrev {
							want = l
						}
						if want >= wheelSlots {
							sawTooLong = sawTooLong || want > wheelSlots
							sawAtHorizon = sawAtHorizon || want == wheelSlots
							want = 0
						} else if in.Op.IsSharedMem() && cfgName == "shm40" {
							sawShortShared = true
						}
					}
					if d.delay != want {
						t.Fatalf("%s: delay %d, the text says %d", at, d.delay, want)
					}
					sawFast = sawFast || d.delay != 0
					sawDivergent = sawDivergent || in.Divergent
				}
				if last := body[len(body)-1]; last.delay != 0 {
					t.Fatalf("%s/%s body %d: the last instruction carries a delay", cfgName, p.Name, which)
				}
			}
		}
	}
	for what, saw := range map[string]bool{
		"an instruction with a delay": sawFast, "a divergent branch": sawDivergent,
		"a separately decoded BodyAlt":                          sawAlt,
		"a shared-memory result latency beyond the wheel":       sawTooLong,
		"an SFU result latency of exactly the wheel's horizon":  sawAtHorizon,
		"a shared-memory op that keeps its backoff-sized delay": sawShortShared,
	} {
		if !saw {
			t.Errorf("the table never covered %s", what)
		}
	}
}

// decodedOf returns prog's decoding of one of its kernel's two bodies.
func decodedOf(prog *Program, text []isa.Instr) []decoded {
	if &text[0] == &prog.kernel.Body[0] {
		return prog.body
	}
	return prog.alt
}

// TestDelayPathMatchesGeneralPath runs every suite kernel on two SMs that
// differ in one thing — the second's program has every delay struck, so
// each instruction takes the text-reading general path — and compares
// every warp's architectural and scheduling state after every cycle.
func TestDelayPathMatchesGeneralPath(t *testing.T) {
	const cycles = 3_000
	for cfgName, cfg := range decodeConfigs() {
		cfg.NumSMs = 1
		for i, p := range suiteProfiles(t) {
			k := kern.MustBuild(i, p, workloads.Seed)
			var sms [2]*SM
			var stats [2]*metrics.KernelStats
			for side := range sms {
				progs, err := Decode(cfg, []*kern.Kernel{k})
				if err != nil {
					t.Fatal(err)
				}
				if side == 1 {
					for _, body := range [][]decoded{progs[0].body, progs[0].alt} {
						for pc := range body {
							body[pc].delay = 0
						}
					}
				}
				stats[side] = &metrics.KernelStats{}
				sms[side] = New(0, cfg, mem.New(cfg))
				sms[side].Configure(progs, []*metrics.KernelStats{stats[side]}, nil)
				for tb := 0; sms[side].FreeFor(0) && tb < p.GridTBs; tb++ {
					sms[side].Dispatch(0, 0, tb, nil)
				}
			}
			for now := int64(0); now < cycles; now++ {
				sms[0].Cycle(now)
				sms[1].Cycle(now)
				if msg := checkMasks(sms[0]); msg != "" {
					t.Fatalf("%s/%s cycle %d: %s", cfgName, p.Name, now, msg)
				}
				if *stats[0] != *stats[1] {
					t.Fatalf("%s/%s cycle %d: stats diverge\n delay path   %+v\n general path %+v", cfgName, p.Name, now, *stats[0], *stats[1])
				}
				for ti, tb := range sms[0].tbs {
					for wi, w := range tb.Warps {
						g := sms[1].tbs[ti].Warps[wi]
						if w.pc != g.pc || w.iter != g.iter || w.readyAt != g.readyAt || w.activeLanes != g.activeLanes ||
							w.atBarrier != g.atBarrier || w.done != g.done {
							t.Fatalf("%s/%s cycle %d TB %d warp %d: delay path pc %d iter %d readyAt %d, general path pc %d iter %d readyAt %d",
								cfgName, p.Name, now, tb.GridIdx, wi, w.pc, w.iter, w.readyAt, g.pc, g.iter, g.readyAt)
						}
					}
				}
			}
			if stats[0].WarpInstrs == 0 {
				t.Fatalf("%s/%s: nothing issued", cfgName, p.Name)
			}
		}
	}
}
