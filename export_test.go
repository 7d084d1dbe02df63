package psi

import (
	"time"

	"github.com/psi-graph/psi/internal/predict"
)

// SetAutoPolicy retunes an auto-policy engine before its first query, for
// tests that need a solo run to overrun at once, a class to run solo after
// one sample, or no staleness races: a positive solo replaces the solo
// budget, and the bandit starts over with minSamples and raceEvery
// (predict.BanditOptions). Engines under another policy keep having no
// bandit.
func SetAutoPolicy(e *Engine, solo time.Duration, minSamples, raceEvery int) {
	if solo > 0 {
		e.solo = solo
	}
	if e.bandit != nil {
		e.bandit = predict.NewBandit(e.arms, predict.BanditOptions{MinSamples: minSamples, RaceEvery: raceEvery})
	}
}
