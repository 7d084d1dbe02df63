//go:build !race

package match_test

// raceEnabled reports a race-detector build, whose slowdown pushes the
// golden corpus's runs past their time limit.
const raceEnabled = false
