//go:build race

package core

// raceEnabled reports whether this test binary runs under the race
// detector.
const raceEnabled = true
