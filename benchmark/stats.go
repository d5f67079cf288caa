package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark's own arithmetic: nearest-rank percentiles, the "ten
// samples beyond" rule, quartile drift and /proc/self/io parsing. Unit
// tests in stats_test.go pin each of them.

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// an ascending-sorted sample: the value at rank ceil(p*n). Nearest-rank
// never interpolates, so every reported latency was actually observed.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// samplesBeyond is how many samples lie strictly above the
// nearest-rank p-th percentile's rank in a sample of n. A run may rest a
// claim on a percentile only when at least ten do (the choosing-metrics
// rule); printTable marks the ones that do not.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// durationsUs converts durations to microseconds.
func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// quartileDrift is the median of the last quarter of an ordered sample
// over the median of its first quarter: 1.0 means per-operation cost did
// not change over the run, 2.0 means it doubled.
func quartileDrift(ordered []float64) float64 {
	q := len(ordered) / 4
	if q == 0 {
		return 1
	}
	first, last := median(ordered[:q]), median(ordered[len(ordered)-q:])
	if first == 0 {
		return 1
	}
	return last / first
}

// spreadPct is (max-min)/median of a sample, in percent.
func spreadPct(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	m := percentile(s, 0.5)
	if m == 0 {
		return 0
	}
	return 100 * (s[len(s)-1] - s[0]) / m
}

// parseProcIO extracts the wchar counter (bytes the process passed to
// write-like system calls) from /proc/self/io content.
func parseProcIO(b []byte) (wchar int64, ok bool) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, found := strings.Cut(sc.Text(), ":")
		if !found || strings.TrimSpace(name) != "wchar" {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	}
	return 0, false
}

// writtenBytes reads the process's cumulative wchar. ok is false where
// /proc/self/io does not exist (non-Linux, restricted containers); the
// caller then falls back to journal file sizes.
func writtenBytes() (int64, bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	return parseProcIO(b)
}

// fmtValue renders a metric value with all its measured digits.
func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
