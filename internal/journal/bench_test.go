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

// BenchmarkJournalRecover times recovery: Open plus Each over a journal
// of 10⁴ decision-sized records (the payload BenchmarkJournalAppend
// writes), as a restarting qosd recovers its log. It reports µs per
// record recovered; the file is written once, before the timer starts, so
// it is read from the page cache. `make bench-journal` runs it.
func BenchmarkJournalRecover(b *testing.B) {
	const records = 10_000
	path := filepath.Join(b.TempDir(), "bench.journal")
	j, err := Create(path, "bench")
	if err != nil {
		b.Fatal(err)
	}
	payload := json.RawMessage(`{"record":"` + strings.Repeat("x", 3400) + `"}`)
	for i := 0; i < records; i++ {
		if err := j.Write("jobs", i, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(path, "bench")
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = r.Each("jobs", func(int, json.RawMessage) error { n++; return nil })
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil || n != records {
			b.Fatalf("recovered %d of %d records: %v", n, records, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*records), "us/record")
}
