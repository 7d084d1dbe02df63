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

// SetTimeout replaces the engine's per-query cap between queries, for tests
// that train a class under a generous cap and then need the cap itself, not
// the solo budget, to kill a learned solo.
func SetTimeout(e *Engine, cap time.Duration) { e.budget.Cap = cap }
