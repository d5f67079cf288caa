package isa

import "testing"

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op               Op
		globalMem, store bool
	}{
		{OpIAlu, false, false},
		{OpFAlu, false, false},
		{OpSFU, false, false},
		{OpLdGlobal, true, false},
		{OpStGlobal, true, true},
		{OpLdShared, false, false},
		{OpStShared, false, true},
		{OpBarrier, false, false},
		{OpBranch, false, false},
	}
	for _, c := range cases {
		if got := c.op.IsGlobalMem(); got != c.globalMem {
			t.Errorf("%v.IsGlobalMem() = %v", c.op, got)
		}
		if got := c.op.IsStore(); got != c.store {
			t.Errorf("%v.IsStore() = %v", c.op, got)
		}
	}
}

func TestOpStrings(t *testing.T) {
	if OpLdGlobal.String() != "ld.global" {
		t.Fatalf("OpLdGlobal = %q", OpLdGlobal.String())
	}
	if OpBarrier.String() != "bar" {
		t.Fatalf("OpBarrier = %q", OpBarrier.String())
	}
	if Op(200).String() == "" {
		t.Fatal("out-of-range op produced empty string")
	}
}

func TestInstrValidate(t *testing.T) {
	cases := []struct {
		name string
		in   Instr
		ok   bool
	}{
		{"plain alu", Instr{Op: OpIAlu}, true},
		{"load with txns", Instr{Op: OpLdGlobal, Transactions: 4}, true},
		{"load without txns", Instr{Op: OpLdGlobal}, false},
		{"load with 33 txns", Instr{Op: OpLdGlobal, Transactions: 33}, false},
		{"alu with txns", Instr{Op: OpIAlu, Transactions: 2}, false},
		{"divergent branch", Instr{Op: OpBranch, Divergent: true}, true},
		{"divergent alu", Instr{Op: OpIAlu, Divergent: true}, false},
		{"invalid op", Instr{Op: Op(99)}, false},
		{"store with txns", Instr{Op: OpStGlobal, Transactions: 8}, true},
	}
	for _, c := range cases {
		err := c.in.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
