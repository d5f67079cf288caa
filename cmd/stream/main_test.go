package main

import (
	"bytes"
	"encoding/csv"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/workloads"
)

// TestGenerateThenDriveCSV generates a short seeded Poisson trace, drives
// it through the in-process daemon twice, and checks the CSV report: one
// row per tenant plus ALL, and the same rows both times once the two
// wall-clock verdict-latency columns are cut.
func TestGenerateThenDriveCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	gen := options{
		mode:     "generate",
		process:  stream.ProcessPoisson,
		rate:     8,
		duration: 2 * time.Second,
		seed:     workloads.Seed,
		out:      path,
	}
	var msg bytes.Buffer
	if err := run(gen, &msg); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(msg.String(), path+": ") {
		t.Fatalf("generate printed %q", msg.String())
	}

	drive := options{
		mode:       "drive",
		trace:      path,
		schemeName: "rollover",
		window:     20_000,
		mix:        3,
		fastPath:   true,
		csvOut:     true,
	}
	first := driveRows(t, drive)
	var want []string
	for _, ten := range stream.DefaultTenants() {
		want = append(want, ten.Name)
	}
	sort.Strings(want) // tenant rows come in name order
	want = append(want, "ALL")
	var got []string
	for _, row := range first {
		got = append(got, row[1])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report rows for tenants %v, want %v", got, want)
	}
	if second := driveRows(t, drive); !reflect.DeepEqual(second, first) {
		t.Fatalf("second drive of the same trace reported\n%v\nwant\n%v", second, first)
	}
}

// driveRows drives o and returns the CSV report's rows without the header
// and without the p50_verdict_ns / p99_verdict_ns columns, which measure
// wall-clock time.
func driveRows(t *testing.T, o options) [][]string {
	t.Helper()
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := recs[0]
	if !reflect.DeepEqual(header, stream.CSVHeader()) {
		t.Fatalf("CSV header %v", header)
	}
	var rows [][]string
	for _, rec := range recs[1:] {
		var row []string
		for i, cell := range rec {
			if h := header[i]; h != "p50_verdict_ns" && h != "p99_verdict_ns" {
				row = append(row, cell)
			}
		}
		rows = append(rows, row)
	}
	return rows
}
