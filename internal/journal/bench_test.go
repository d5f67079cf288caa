package journal

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// BenchmarkJournalAppend times durable Appends of a decision-sized record
// (≈ 3.4 KB of JSON, what qosd journals per /v1 decision) into a fresh
// journal under b.TempDir(), so on the file system of $TMPDIR. It reports
// µs per Append, how many of them grew the file (wrote pad first) and the
// bytes per Append the handle still holds afterwards (live heap after a
// GC, before and after the loop). `make bench-journal` runs it.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := Create(filepath.Join(b.TempDir(), "bench.journal"), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	payload := json.RawMessage(`{"record":"` + strings.Repeat("x", 3400) + `"}`)
	grows := 0
	before := liveHeap()
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
	b.ReportMetric((float64(liveHeap())-float64(before))/float64(b.N), "retainedB/append")
}

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
