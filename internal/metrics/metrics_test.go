package metrics

import "testing"

func TestBeginEpoch(t *testing.T) {
	k := &KernelStats{}
	k.ThreadInstrs = 100
	if got := k.BeginEpoch(); got != 100 {
		t.Fatalf("first epoch instrs = %d, want 100", got)
	}
	k.ThreadInstrs = 250
	if got := k.BeginEpoch(); got != 150 {
		t.Fatalf("second epoch instrs = %d, want 150", got)
	}
	if k.LastEpochInstrs != 150 {
		t.Fatalf("LastEpochInstrs = %d", k.LastEpochInstrs)
	}
	// An idle epoch reports zero.
	if got := k.BeginEpoch(); got != 0 {
		t.Fatalf("idle epoch instrs = %d, want 0", got)
	}
}

func TestL1MissRate(t *testing.T) {
	k := &KernelStats{L1Accesses: 10, L1Misses: 3}
	if got := k.L1MissRate(); got != 0.3 {
		t.Fatalf("miss rate %v", got)
	}
	if (&KernelStats{}).L1MissRate() != 0 {
		t.Fatal("zero-access miss rate should be 0")
	}
}

func TestString(t *testing.T) {
	k := &KernelStats{ThreadInstrs: 5}
	if k.String() == "" {
		t.Fatal("empty String()")
	}
}
