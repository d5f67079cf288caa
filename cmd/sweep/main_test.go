package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// testOptions is a 4-case pair grid (2 pairs x 2 goals) under Rollover on
// a 4-SM device with a 30k-cycle window, run on two sessions.
func testOptions() options {
	gpu := config.Base()
	gpu.NumSMs = 4
	return options{
		mode:      "pairs",
		nQoS:      1,
		schemes:   "rollover",
		window:    30_000,
		subsample: 45,
		goals:     "0.4,0.7",
		gpu:       gpu,
		workers:   2,
		traceFmt:  "jsonl",
		suite:     "paper",
	}
}

// TestServeJournalResumesLocally pins journal interop across the removal
// of the distributed sweep. testdata/serve.ckpt was written by the
// command's former coordinator role (-serve -journal, one in-process
// worker) on testOptions()'s grid. It must open under -journal -resume,
// which also pins the header hash openJournal derives, restore all four
// cases without simulating or appending anything, and print the CSV of a
// fresh local run byte for byte.
func TestServeJournalResumesLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	var want bytes.Buffer
	if err := run(context.Background(), testOptions(), &want); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(want.String(), "\n"); rows != 5 {
		t.Fatalf("local run printed %d lines, want a header and 4 rows:\n%s", rows, want.String())
	}

	committed, err := os.ReadFile(filepath.Join("testdata", "serve.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	resumed := testOptions()
	resumed.journalPath, resumed.resume = filepath.Join(t.TempDir(), "serve.ckpt"), true
	if err := os.WriteFile(resumed.journalPath, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(context.Background(), resumed, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed -serve journal printed:\n%s\nwant the local run's:\n%s", got.String(), want.String())
	}
	after, err := os.ReadFile(resumed.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, committed) {
		t.Fatal("resuming the -serve journal appended to it: a case was simulated again")
	}
}
