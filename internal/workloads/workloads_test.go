package workloads

import (
	"testing"

	"repro/internal/kern"
)

func TestSuiteSize(t *testing.T) {
	if got := len(Profiles()); got != 10 {
		t.Fatalf("suite has %d benchmarks, want 10 (Parboil minus bfs)", got)
	}
}

func TestAllProfilesBuild(t *testing.T) {
	for i, p := range Profiles() {
		if _, err := kern.Build(i, p, Seed, nil); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate benchmark name %q", n)
		}
		seen[n] = true
	}
}

func TestClassSplit(t *testing.T) {
	compute, memory := 0, 0
	for _, p := range Profiles() {
		switch p.Class {
		case kern.ClassCompute:
			compute++
		case kern.ClassMemory:
			memory++
		}
	}
	if compute != 5 || memory != 5 {
		t.Fatalf("class split C=%d M=%d, want 5/5", compute, memory)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	if p.Class != kern.ClassCompute {
		t.Error("sgemm should be compute-intensive")
	}
	if _, err := ByName("bfs"); err == nil {
		t.Error("bfs should be absent (excluded by the paper)")
	}
}

func TestKernelBuildsWithSlotID(t *testing.T) {
	p, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	k0, err := kern.Build(0, p, Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := kern.Build(1, p, Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k0.AddrBase() == k1.AddrBase() {
		t.Fatal("same workload in different slots must get disjoint address spaces")
	}
}

func TestPairsEnumeration(t *testing.T) {
	pairs := Pairs()
	if len(pairs) != 90 {
		t.Fatalf("%d pairs, want 90 (paper Section 4.1)", len(pairs))
	}
	seen := make(map[Pair]bool)
	for _, p := range pairs {
		if p.QoS == p.NonQoS {
			t.Fatalf("pair %v co-runs a kernel with itself", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestTriosEnumeration(t *testing.T) {
	trios := Trios()
	if len(trios) != 60 {
		t.Fatalf("%d trios, want 60 (paper Section 4.1)", len(trios))
	}
	seen := make(map[Trio]bool)
	names := make(map[string]bool)
	for _, tr := range trios {
		if tr.A == tr.B || tr.B == tr.C || tr.A == tr.C {
			t.Fatalf("trio %v has duplicate members", tr)
		}
		if seen[tr] {
			t.Fatalf("duplicate trio %v", tr)
		}
		seen[tr] = true
		names[tr.A], names[tr.B], names[tr.C] = true, true, true
	}
	if len(names) != 10 {
		t.Errorf("trios only cover %d of 10 benchmarks", len(names))
	}
}

func TestPairClass(t *testing.T) {
	cases := []struct {
		q, n, want string
	}{
		{"sgemm", "cutcp", "C+C"},
		{"sgemm", "lbm", "C+M"},
		{"lbm", "sgemm", "C+M"},
		{"lbm", "spmv", "M+M"},
	}
	for _, c := range cases {
		got, err := PairClass(c.q, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("PairClass(%s,%s) = %s, want %s", c.q, c.n, got, c.want)
		}
	}
	if _, err := PairClass("nope", "sgemm"); err == nil {
		t.Error("PairClass accepted unknown benchmark")
	}
}

func TestHistoIsShortRunning(t *testing.T) {
	histo, _ := ByName("histo")
	for _, p := range Profiles() {
		if p.Name == "histo" {
			continue
		}
		if int64(p.GridTBs)*int64(p.Iterations)*int64(p.BodyInstrs) <
			int64(histo.GridTBs)*int64(histo.Iterations)*int64(histo.BodyInstrs) {
			t.Errorf("%s has less total work than histo; histo must be the short benchmark", p.Name)
		}
	}
}
