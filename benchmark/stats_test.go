package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {1, 100}, {0.1, 10}, {0.01, 10}, {0.25, 30},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// Nearest-rank never interpolates: an even-sized sample's median is
	// the lower middle value, an observed one.
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{100, 0.9, 10}, {99, 0.9, 9}, {1000, 0.99, 10}, {400, 0.99, 4}, {400, 0.9, 40}, {0, 0.5, 0},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

func TestQuartileDrift(t *testing.T) {
	// Cost doubles over the run: last quarter's median over the first's.
	xs := []float64{100, 100, 120, 140, 160, 180, 200, 200}
	if got := quartileDrift(xs); got != 2 {
		t.Errorf("quartileDrift = %v, want 2", got)
	}
	if got := quartileDrift([]float64{5, 6, 7}); got != 1 {
		t.Errorf("quartileDrift of fewer than four samples = %v, want 1", got)
	}
}

func TestParseProcIO(t *testing.T) {
	const sample = "rchar: 3012\nwchar: 1945600\nsyscr: 12\nsyscw: 40\nread_bytes: 0\nwrite_bytes: 1949696\ncancelled_write_bytes: 0\n"
	if got, ok := parseProcIO([]byte(sample)); !ok || got != 1945600 {
		t.Errorf("parseProcIO = %d, %v; want 1945600, true", got, ok)
	}
	for _, bad := range []string{"", "rchar: 1\n", "wchar: many\n"} {
		if _, ok := parseProcIO([]byte(bad)); ok {
			t.Errorf("parseProcIO(%q) reported ok", bad)
		}
	}
}
