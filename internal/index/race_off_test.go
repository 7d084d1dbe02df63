//go:build !race

package index_test

// raceEnabled reports a race-detector build, where sync.Pool drops items at
// random: allocation counts are then not the program's own.
const raceEnabled = false
