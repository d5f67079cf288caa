package kern

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// testProfile returns a small valid profile for tests.
func testProfile() Profile {
	return Profile{
		Name: "test", Class: ClassCompute,
		BodyInstrs: 20, Iterations: 5,
		FracGlobalMem: 0.2, FracStore: 0.3, FracShared: 0.1, FracSFU: 0.05,
		DepDensity: 0.4, DivergenceFrac: 0.1,
		CoalesceDegree: 2.0, ReuseFrac: 0.5,
		HotBytes: 4 << 10, FootprintBytes: 1 << 20,
		BarrierEvery: 8,
		ThreadsPerTB: 64, RegsPerThread: 32, SharedMemPerTB: 1 << 10, GridTBs: 8,
	}
}

func TestBuildValidProfile(t *testing.T) {
	k, err := Build(0, testProfile(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Body) < 20 {
		t.Fatalf("body has %d instrs, want >= BodyInstrs", len(k.Body))
	}
	if int64(len(k.Body)) != testProfile().bodyLen() {
		t.Fatalf("body has %d instrs, bodyLen says %d", len(k.Body), testProfile().bodyLen())
	}
	for i, in := range k.Body {
		if err := in.Validate(); err != nil {
			t.Fatalf("body[%d] invalid: %v", i, err)
		}
	}
}

// TestBuildInPlaceMatchesFresh: a kernel rebuilt over another, phased or
// not either way, a longer body or a shorter one, equals a fresh build,
// and its boosted body is its own storage exactly when it has phases.
func TestBuildInPlaceMatchesFresh(t *testing.T) {
	plain, phased, long := testProfile(), testProfile(), testProfile()
	phased.PhasePeriod, phased.PhaseMemBoost = 2, 0.2
	long.BodyInstrs, long.PhasePeriod, long.PhaseMemBoost = 90, 3, 0.3
	profiles := []Profile{plain, phased, long, plain, long, phased, phased}
	var k *Kernel
	for i, p := range profiles {
		var err error
		if k, err = Build(i%3, p, uint64(i), k); err != nil {
			t.Fatal(err)
		}
		want, _ := Build(i%3, p, uint64(i), nil)
		if !reflect.DeepEqual(k, want) {
			t.Fatalf("build %d: rebuilt in place differs from a fresh build", i)
		}
		if (p.PhasePeriod > 0) != (&k.BodyAlt[0] != &k.Body[0]) {
			t.Fatalf("build %d: PhasePeriod %d, but BodyAlt is Body: %v", i, p.PhasePeriod, &k.BodyAlt[0] == &k.Body[0])
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, _ := Build(0, testProfile(), 7, nil)
	b, _ := Build(0, testProfile(), 7, nil)
	if len(a.Body) != len(b.Body) {
		t.Fatal("same (profile, seed) produced different body lengths")
	}
	for i := range a.Body {
		if a.Body[i] != b.Body[i] {
			t.Fatalf("same (profile, seed) diverged at instr %d", i)
		}
	}
	c, _ := Build(0, testProfile(), 8, nil)
	same := true
	for i := range a.Body {
		if i < len(c.Body) && a.Body[i] != c.Body[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical bodies")
	}
}

func TestValidateRejections(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"tiny body", func(p *Profile) { p.BodyInstrs = 1 }},
		{"zero iterations", func(p *Profile) { p.Iterations = 0 }},
		{"mix over 0.95", func(p *Profile) { p.FracGlobalMem = 0.9; p.FracShared = 0.2 }},
		{"negative frac", func(p *Profile) { p.FracSFU = -0.1 }},
		{"dep density 1.5", func(p *Profile) { p.DepDensity = 1.5 }},
		{"divergence 0.95", func(p *Profile) { p.DivergenceFrac = 0.95 }},
		{"coalesce 0.5", func(p *Profile) { p.CoalesceDegree = 0.5 }},
		{"coalesce 40", func(p *Profile) { p.CoalesceDegree = 40 }},
		{"zero hot", func(p *Profile) { p.HotBytes = 0 }},
		{"threads not warp multiple", func(p *Profile) { p.ThreadsPerTB = 65 }},
		{"threads over 1024", func(p *Profile) { p.ThreadsPerTB = 2048 }},
		{"zero regs", func(p *Profile) { p.RegsPerThread = 0 }},
		{"zero grid", func(p *Profile) { p.GridTBs = 0 }},
		{"negative phase", func(p *Profile) { p.PhasePeriod = -1 }},
	}
	for _, m := range muts {
		p := testProfile()
		m.mut(&p)
		if _, err := Build(0, p, 1, nil); err == nil {
			t.Errorf("%s: Build accepted invalid profile", m.name)
		}
	}
}

// TestValidateBoundsWarpCounters: a warp context keeps its iteration and
// pc in 32 bits, so Validate refuses a profile that could overflow either.
// Validate is called alone: Build without the bound would generate the
// 2³¹-instruction body.
func TestValidateBoundsWarpCounters(t *testing.T) {
	// Past int32 on a 64-bit int; on a 32-bit one the conversion wraps
	// negative, which Validate rejects as well.
	pastInt32 := int64(math.MaxInt32)
	pastInt32++
	muts := []struct {
		name string
		mut  func(*Profile)
	}{
		{"iterations past int32", func(p *Profile) { p.Iterations = int(pastInt32) }},
		// bodyLen would overflow int64 here on a 64-bit int.
		{"body instructions at MaxInt", func(p *Profile) { p.BodyInstrs = math.MaxInt; p.BarrierEvery = 1 }},
		// MaxInt32 instructions plus a barrier before every other one.
		{"body past int32", func(p *Profile) { p.BodyInstrs = math.MaxInt32; p.BarrierEvery = 2 }},
	}
	for _, m := range muts {
		p := testProfile()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a profile a warp context cannot count", m.name)
		}
	}
}

func TestBodyMixConvergence(t *testing.T) {
	p := testProfile()
	p.BodyInstrs = 4000
	p.BarrierEvery = 0
	k, err := Build(0, p, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mem, shared int
	for _, in := range k.Body {
		if in.Op.IsGlobalMem() {
			mem++
		}
		if in.Op == isa.OpLdShared || in.Op == isa.OpStShared {
			shared++
		}
	}
	memFrac := float64(mem) / float64(len(k.Body))
	if memFrac < 0.16 || memFrac > 0.24 {
		t.Errorf("global-mem fraction %v, want ~0.2", memFrac)
	}
	sharedFrac := float64(shared) / float64(len(k.Body))
	if sharedFrac < 0.07 || sharedFrac > 0.13 {
		t.Errorf("shared fraction %v, want ~0.1", sharedFrac)
	}
}

func TestBarrierCadence(t *testing.T) {
	k, _ := Build(0, testProfile(), 1, nil)
	bars := 0
	for _, in := range k.Body {
		if in.Op == isa.OpBarrier {
			bars++
		}
	}
	// 20 instrs with a barrier every 8 → barriers inserted at i=8 and 16.
	if bars != 2 {
		t.Fatalf("body has %d barriers, want 2", bars)
	}
}

func TestNoBarriersWhenDisabled(t *testing.T) {
	p := testProfile()
	p.BarrierEvery = 0
	k, _ := Build(0, p, 1, nil)
	for _, in := range k.Body {
		if in.Op == isa.OpBarrier {
			t.Fatal("barrier emitted with BarrierEvery=0")
		}
	}
}

func TestWarpsPerTB(t *testing.T) {
	p := testProfile()
	p.ThreadsPerTB = 96
	k, _ := Build(0, p, 1, nil)
	if got := k.WarpsPerTB(); got != 3 {
		t.Fatalf("WarpsPerTB = %d, want 3", got)
	}
}

func TestTBResources(t *testing.T) {
	k, _ := Build(0, testProfile(), 1, nil)
	r := k.TBResources()
	if r.Threads != 64 {
		t.Errorf("Threads = %d", r.Threads)
	}
	if r.RegBytes != 64*32*4 {
		t.Errorf("RegBytes = %d, want %d", r.RegBytes, 64*32*4)
	}
	if r.ShmBytes != 1<<10 {
		t.Errorf("ShmBytes = %d", r.ShmBytes)
	}
	if r.CtxBytes <= r.RegBytes {
		t.Errorf("CtxBytes = %d, want > RegBytes (includes metadata)", r.CtxBytes)
	}
}

func TestAddrSpaceSeparation(t *testing.T) {
	k0, _ := Build(0, testProfile(), 1, nil)
	k1, _ := Build(1, testProfile(), 1, nil)
	if k0.AddrBase() == k1.AddrBase() {
		t.Fatal("distinct kernel IDs share an address base")
	}
}

func TestGlobalAddrDeterministicAndInRange(t *testing.T) {
	k, _ := Build(0, testProfile(), 5, nil)
	a1 := k.GlobalAddr(3, 2, 7, 0, false)
	a2 := k.GlobalAddr(3, 2, 7, 0, false)
	if a1 != a2 {
		t.Fatal("GlobalAddr is not deterministic")
	}
	f := func(gid uint64, iter, pc, tx uint8, reuse bool) bool {
		addr := k.GlobalAddr(gid, int(iter), int(pc), int(tx), reuse)
		off := addr - k.AddrBase()
		if addr < k.AddrBase() {
			return false
		}
		if addr%128 != 0 {
			return false // 128B transaction alignment
		}
		limit := uint64(k.Profile.FootprintBytes)
		if reuse {
			limit = uint64(k.Profile.HotBytes)
		}
		return off < limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseBodies(t *testing.T) {
	p := testProfile()
	p.PhasePeriod = 2
	p.PhaseMemBoost = 0.3
	p.BarrierEvery = 0
	p.BodyInstrs = 2000
	k, err := Build(0, p, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	memFrac := func(body []isa.Instr) float64 {
		n := 0
		for _, in := range body {
			if in.Op.IsGlobalMem() {
				n++
			}
		}
		return float64(n) / float64(len(body))
	}
	base := memFrac(k.Body)
	boost := memFrac(k.BodyAlt)
	if boost <= base+0.15 {
		t.Fatalf("phase boost too small: base %v boosted %v", base, boost)
	}
	if k.Boosted(0) || k.Boosted(1) {
		t.Fatal("iterations 0 and 1 should run the base body")
	}
	if !k.Boosted(2) {
		t.Fatal("iteration 2 should run the boosted body")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on invalid profile")
		}
	}()
	p := testProfile()
	p.Name = ""
	MustBuild(0, p, 1)
}

func TestSampleTransactionsMean(t *testing.T) {
	p := testProfile()
	p.BodyInstrs = 5000
	p.FracGlobalMem = 0.5
	p.FracShared = 0
	p.FracSFU = 0
	p.BarrierEvery = 0
	p.CoalesceDegree = 4.0
	k, _ := Build(0, p, 11, nil)
	var sum, n float64
	for _, in := range k.Body {
		if in.Op.IsGlobalMem() {
			sum += float64(in.Transactions)
			n++
		}
	}
	mean := sum / n
	if mean < 3.5 || mean > 4.5 {
		t.Fatalf("mean transactions %v, want ~4", mean)
	}
}
