//go:build !race

package core

// raceEnabled reports a race-detector build, whose instrumentation
// allocates: allocation counts are then not the program's own.
const raceEnabled = false
