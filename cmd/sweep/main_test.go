package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// testOptions is a 4-case pair grid (2 pairs x 2 goals) under Rollover on
// a 4-SM device with a 30k-cycle window, run on two sessions.
func testOptions() options {
	gpu := config.Base()
	gpu.NumSMs = 4
	return options{
		mode:       "pairs",
		nQoS:       1,
		schemes:    "rollover",
		window:     30_000,
		subsample:  45,
		goals:      "0.4,0.7",
		gpu:        gpu,
		workers:    2,
		backoff:    50 * time.Millisecond,
		traceFmt:   "jsonl",
		suite:      "paper",
		leaseCases: 2,
		leaseTTL:   10 * time.Second,
		drainWait:  5 * time.Second,
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// serveCSV runs o as a -serve coordinator with the given -worker
// processes in-process and returns the CSV it prints.
func serveCSV(t *testing.T, o options, workers ...options) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	o.serveAddr = freeAddr(t)
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() { served <- run(ctx, o, &out) }()
	joined := make(chan error, len(workers))
	for _, w := range workers {
		w.workerAddr = "http://" + o.serveAddr
		// The coordinator may not listen yet: fetching the spec retries.
		w.retries = 8
		go func() { joined <- run(ctx, w, io.Discard) }()
	}
	if err := <-served; err != nil {
		t.Fatalf("-serve: %v", err)
	}
	for range workers {
		if err := <-joined; err != nil {
			t.Errorf("-worker: %v", err)
		}
	}
	return out.String()
}

// TestServeMatchesLocal checks that the three roles of the command are one
// sweep: the CSV of a local run equals, byte for byte, the CSV -serve
// prints after an in-process -worker ran the grid; a local run's journal
// finishes under -serve with no worker at all, so nothing was leased; and
// flag combinations that would be silently ignored are refused.
func TestServeMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	dir := t.TempDir()
	local := testOptions()
	local.journalPath = filepath.Join(dir, "local.ckpt")
	var want bytes.Buffer
	if err := run(context.Background(), local, &want); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(want.String(), "\n"); rows != 5 {
		t.Fatalf("local run printed %d lines, want a header and 4 rows:\n%s", rows, want.String())
	}

	worker := testOptions()
	worker.traceDir = filepath.Join(dir, "traces")
	if got := serveCSV(t, testOptions(), worker); got != want.String() {
		t.Fatalf("-serve + -worker CSV differs from the local run:\n--- local ---\n%s--- serve ---\n%s", want.String(), got)
	}
	traces, err := filepath.Glob(filepath.Join(worker.traceDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatalf("-worker -trace wrote %d trace files, want one per case (4)", len(traces))
	}

	resumed := testOptions()
	resumed.journalPath, resumed.resume = local.journalPath, true
	if got := serveCSV(t, resumed); got != want.String() {
		t.Fatalf("-serve over the local journal printed:\n%s\nwant:\n%s", got, want.String())
	}

	for name, tc := range map[string]struct {
		edit func(*options)
		want string
	}{
		"-serve with two schemes": {func(o *options) { o.serveAddr, o.schemes = "127.0.0.1:0", "rollover,spart" }, "-serve"},
		"-serve -mode stream":     {func(o *options) { o.serveAddr, o.mode = "127.0.0.1:0", "stream" }, "-serve"},
		"-worker -fail-fast":      {func(o *options) { o.workerAddr, o.failFast = "http://127.0.0.1:1", true }, "-fail-fast"},
	} {
		o := testOptions()
		tc.edit(&o)
		if err := run(context.Background(), o, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a refusal naming %s", name, err, tc.want)
		}
	}
}
