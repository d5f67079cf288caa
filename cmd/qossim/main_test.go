package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestAllFromCommittedRows runs -exp all at the default flags over the
// committed row store under a canceled context, so any sweep that would
// simulate fails the run: every table must come from results/full, each
// experiment at the stride its rows are committed at.
func TestAllFromCommittedRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := options{expName: "all", subsample: 1, window: exp.CommittedWindow, quiet: true,
		rows: "../../results/full", traceFmt: "jsonl"}
	var out bytes.Buffer
	if err := run(ctx, o, &out); err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "== ") {
			tables++
		}
	}
	if want := len(exp.Experiments()); tables != want || want != 21 {
		t.Fatalf("printed %d tables, want %d (the registry's 21)", tables, want)
	}
}
