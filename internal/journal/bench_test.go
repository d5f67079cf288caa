package journal

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// BenchmarkJournalAppend times durable Appends of a decision-sized record
// (≈ 3.4 KB of JSON, what qosd journals per /v1 decision) into a fresh
// journal under b.TempDir(), so on the file system of $TMPDIR. It reports
// µs per Append and how many of them grew the file (wrote pad first).
// `make bench-journal` runs it.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := Create(filepath.Join(b.TempDir(), "bench.journal"), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	payload := json.RawMessage(`{"record":"` + strings.Repeat("x", 3400) + `"}`)
	grows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end := j.end
		if err := j.Append("jobs", i, payload); err != nil {
			b.Fatal(err)
		}
		if j.end != end {
			grows++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/append")
	b.ReportMetric(float64(grows), "grows")
}
