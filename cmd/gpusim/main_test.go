package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
)

// TestCoRun runs a QoS kernel next to a best-effort one under Rollover and
// checks the report names the scheme and one row per kernel.
func TestCoRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "sgemm:0.8,lbm", "rollover", 30_000, false, "", "jsonl"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "scheme Rollover, 16 SMs, 30000 cycles") {
		t.Fatalf("report header:\n%s", got)
	}
	for _, row := range []string{"\nsgemm          true ", "\nlbm            false "} {
		if !strings.Contains(got, row) {
			t.Fatalf("report has no %q row:\n%s", strings.TrimSpace(row), got)
		}
	}
}

// TestLoneKernelTraced runs one kernel without a goal, which is an
// isolated run: its IPC must equal its isolated IPC, and -trace must
// still write the run's event trace.
func TestLoneKernelTraced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lone.jsonl")
	var out bytes.Buffer
	if err := run(context.Background(), &out, "sgemm", "rollover", 30_000, false, path, "jsonl"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no trace written: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("empty trace file")
	}
	var head struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatalf("trace header %s: %v", sc.Bytes(), err)
	}
	if err := schema.Check(head.Schema); err != nil {
		t.Fatal(err)
	}

	got := out.String()
	if !strings.HasPrefix(got, "scheme Unmanaged,") {
		t.Fatalf("a lone kernel must run unmanaged:\n%s", got)
	}
	for _, line := range strings.Split(got, "\n") {
		if f := strings.Fields(line); len(f) == 7 && f[0] == "sgemm" {
			if f[2] != f[3] {
				t.Fatalf("lone kernel IPC %s differs from its isolated IPC %s", f[2], f[3])
			}
			return
		}
	}
	t.Fatalf("no sgemm row in the report:\n%s", got)
}
