package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", StartUs: 0, EndUs: 100, Parent: -1},
		{Name: "a", StartUs: 10, EndUs: 40, Parent: 0},          // 30
		{Name: "b", StartUs: 30, EndUs: 60, Parent: 0},          // overlaps a: adds 20
		{Name: "c", StartUs: 90, EndUs: 130, Parent: 0},         // sticks out: adds 10
		{Name: "inside-b", StartUs: 35, EndUs: 45, Parent: 2},   // grandchild
		{Name: "contained", StartUs: 32, EndUs: 38, Parent: 0},  // inside a∪b: adds 0
		{Name: "orphan", StartUs: 200, EndUs: 210, Parent: 999}, // unknown parent: a root
	}
	want := []float64{40, 30, 20, 40, 10, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilRecorderIsTheUntracedPass(t *testing.T) {
	var r *recorder
	r.end(r.begin("x", -1, 0))
	if n := len(r.selfByName()); n != 0 {
		t.Errorf("nil recorder reported %d span names", n)
	}
}

func TestRecorderParents(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1, -1)
	kid := r.begin("kid", root, 7)
	r.end(kid)
	r.end(root)
	if r.spans[kid].Parent != root || r.spans[kid].ID != 7 {
		t.Errorf("child span = %+v, want parent %d id 7", r.spans[kid], root)
	}
	self := selfTimes(r.spans)
	if self[root] < 0 || self[root] > r.spans[root].EndUs-r.spans[root].StartUs {
		t.Errorf("root self time %v outside its duration", self[root])
	}
}
