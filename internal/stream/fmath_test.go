package stream

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// fmathDraws is how many seeded arguments TestUnfusedMatchesStdlib draws
// per function.
const fmathDraws = 1_000_000

// TestUnfusedMatchesStdlib holds the ports to the standard library bit
// for bit, on the arguments the generators pass: expo's 1-u, and
// diurnalTimes' 2π·t/period for arrivals t over the trace's horizon with
// the default period (the horizon) and with periods down to a millionth
// of it, plus reduction-sized and special arguments. It runs where Go
// never fuses a multiply-add (amd64, 386), so there the standard library
// is the reference; elsewhere the ports are.
func TestUnfusedMatchesStdlib(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("math.Log and math.Sin may fuse on %s", runtime.GOARCH)
	}
	src := rng.New(20260101)
	same := func(name string, got, want, arg float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%v) = %v (%#x), math's is %v (%#x)", name, arg, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for range fmathDraws {
		x := 1 - float64(src.Float64())
		same("unfusedLog", unfusedLog(x), math.Log(x), x)
	}
	cycles := []float64{1, 24, 1e3, 1e6} // horizon/period
	for i := range fmathDraws {
		x := 2 * math.Pi * src.Float64() * cycles[i%len(cycles)]
		same("unfusedSin", unfusedSin(x), math.Sin(x), x)
	}
	for range 10_000 {
		x := math.Ldexp(1+src.Float64(), 29+src.Intn(990)) // past 2^29: the Payne-Hanek path
		same("unfusedSin", unfusedSin(x), math.Sin(x), x)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1, 0x1p-53, math.MaxFloat64, -1, -2.5,
		math.Pi / 4, math.Inf(1), math.Inf(-1), math.NaN()} {
		same("unfusedLog", unfusedLog(x), math.Log(x), x)
		same("unfusedSin", unfusedSin(x), math.Sin(x), x)
	}
}
