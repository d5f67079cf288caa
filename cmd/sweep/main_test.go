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

// canceled is a context any simulation fails under: a run that succeeds
// under it read every row from its row store.
func canceled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestCommittedRowsPrintWithoutSimulating reads committed stages of
// results/full under a canceled context, each of which must print the
// bytes of its row file: a single-scheme sweep's CSV is the row file. The
// stages cover a full pair grid, a two-QoS trio grid and the stride-6
// pair grid on the 56-SM device.
func TestCommittedRowsPrintWithoutSimulating(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		edit       func(*options)
	}{
		{"rollover pairs", "pairs_rollover_41fd78ba8736_d42656481e63.csv", func(*options) {}},
		{"two-QoS trios", "trios_rollover_41fd78ba8736_ccb1bca76ab0.csv", func(o *options) { o.mode, o.nQoS = "trios", 2 }},
		{"scale56 pairs", "pairs_rollover_94914664c71c_6c85223d8788.csv", func(o *options) { o.gpu, o.subsample = config.Scale56(), 6 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := options{mode: "pairs", nQoS: 1, schemes: "rollover", window: 300_000, subsample: 1,
				gpu: config.Base(), workers: 1, rows: "../../results/full", traceFmt: "jsonl", suite: "paper"}
			tc.edit(&o)
			want, err := os.ReadFile(filepath.Join(o.rows, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(canceled(), o, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("sweep printed %d bytes, want the committed row file's %d", got.Len(), len(want))
			}
		})
	}
}

// TestRowsResumeLocally runs a small sweep with and without a row store:
// both print the same CSV, and a re-run over the store, under a canceled
// context, prints it again without simulating.
func TestRowsResumeLocally(t *testing.T) {
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
	stored := testOptions()
	stored.rows = t.TempDir()
	for _, ctx := range []context.Context{context.Background(), canceled()} {
		var got bytes.Buffer
		if err := run(ctx, stored, &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("sweep over a row store printed:\n%s\nwant the local run's:\n%s", got.String(), want.String())
		}
	}
	if files, _ := filepath.Glob(filepath.Join(stored.rows, "*.csv")); len(files) != 1 {
		t.Fatalf("row store holds %v, want one stage file", files)
	}
}
