// Package predict implements the paper's §9 future-work direction: "using
// machine learning models to predict which version of our framework
// (algorithms, rewritings) to employ per query".
//
// Bandit is the traffic-aware planning policy: a per-query-class multi-armed
// bandit over the engine's portfolio (filtering indexes for dataset engines,
// matcher×rewriting attempts for stored-graph engines). It answers the
// serving question: "is it safe to run the class's best arm *alone*, or must
// this query still pay for a full race?" Its state is bounded by the number
// of query classes seen, never by the number of queries served.
//
// The policy is deliberately conservative, because racing is the correctness
// backstop the paper's framework is built on:
//
//   - Unfamiliar classes race. Until a class has MinSamples successful
//     observations, every query of that class races the full portfolio — the
//     race both answers the query and trains the arms.
//   - Stale classes re-race. Every RaceEvery-th decision of a class races
//     even when a best arm is known, so a drifting workload (or an arm whose
//     early wins were luck) keeps being re-measured.
//   - Killed arms escalate. A solo attempt killed by the engine's per-query
//     budget is strong evidence against the arm AND against soloing the
//     class at all: the kill is recorded on the arm and the class's next
//     decision is forced back to a full race.
//   - Cancellation is not evidence. A client disconnect (or server drain)
//     says nothing about the arm's quality, so callers record nothing for it:
//     conflating it with a kill would poison the statistics.
//
// Safe for concurrent use; the zero value is not usable — construct with
// NewBandit.
package predict

import (
	"math/bits"
	"strconv"
	"sync"
	"time"

	"github.com/psi-graph/psi/internal/graph"
)

// ClassKey buckets a query graph into a coarse traffic class: logarithmic
// buckets of vertex count, edge count and distinct-label count. Queries in
// one class are close enough in shape that one arm choice transfers between
// them; the key is O(|q|) to compute and allocation-light, so planning can
// afford it on every query.
func ClassKey(q *graph.Graph) string {
	n, m := q.N(), q.M()
	l := len(q.LabelFrequencies())
	var b []byte
	b = append(b, 'n')
	b = strconv.AppendInt(b, int64(logBucket(n)), 10)
	b = append(b, 'm')
	b = strconv.AppendInt(b, int64(logBucket(m)), 10)
	b = append(b, 'l')
	b = strconv.AppendInt(b, int64(logBucket(l)), 10)
	return string(b)
}

// logBucket maps x to its log2 bucket (0 for x <= 0).
func logBucket(x int) int {
	if x <= 0 {
		return 0
	}
	return bits.Len(uint(x))
}

// BanditOptions tunes a Bandit. The zero value selects the defaults noted on
// each field.
type BanditOptions struct {
	// MinSamples is how many successful observations (race wins + solo
	// completions) a class needs before its queries may run solo; 0 means 3.
	MinSamples int
	// RaceEvery forces every Nth decision of a class to a full race even
	// when a best arm is known, so the statistics cannot go stale; 0 means
	// 16, negative disables staleness races entirely.
	RaceEvery int
}

// Reasons a Decide call escalates to (or stays at) a full race, surfaced so
// planners and benchmarks can report why CPU was spent.
const (
	// ReasonWarmup: the class has too few observations to trust an arm.
	ReasonWarmup = "warmup"
	// ReasonStale: a periodic re-race to refresh the class's statistics.
	ReasonStale = "stale"
	// ReasonEscalated: the class's previous solo attempt was killed by the
	// per-query budget.
	ReasonEscalated = "escalated"
	// ReasonLearned: a solo decision backed by the class's statistics.
	ReasonLearned = "learned"
)

// Decision is one planning choice for one query.
type Decision struct {
	// Class is the query's traffic class (ClassKey).
	Class string `json:"class"`
	// Solo is true when the query should run Arm alone; false means race
	// the full portfolio.
	Solo bool `json:"solo"`
	// Arm is the portfolio position to run solo (valid only when Solo).
	Arm int `json:"arm"`
	// ArmName is the solo arm's name, as NewBandit was given it ("Grapes/1",
	// "GQL-DND"); empty on races.
	ArmName string `json:"arm_name,omitempty"`
	// Reason says why: ReasonLearned for solo, ReasonWarmup / ReasonStale /
	// ReasonEscalated for races.
	Reason string `json:"reason"`
}

// armStats accumulates one arm's evidence within one class.
type armStats struct {
	wins       int64 // full races this arm won
	solos      int64 // solo runs that completed
	kills      int64 // solo runs killed by the budget
	latencySum time.Duration
}

func (a *armStats) successes() int64 { return a.wins + a.solos }

// meanLatency is the arm's average observed first-result latency.
func (a *armStats) meanLatency() time.Duration {
	n := a.successes()
	if n == 0 {
		return 0
	}
	return a.latencySum / time.Duration(n)
}

// score orders arms for solo selection: mean observed latency, inflated by
// (1 + kills) so an arm the budget has killed must out-measure the clean
// arms by a widening margin before it is trusted solo again.
func (a *armStats) score() time.Duration {
	return a.meanLatency() * time.Duration(1+a.kills)
}

// classStats is one traffic class's state.
type classStats struct {
	decisions int64 // Decide calls, for the staleness schedule
	escalated bool  // last solo was killed: next decision must race
	arms      []armStats
}

// Bandit is the policy object. Construct with NewBandit; all methods are
// safe for concurrent use.
type Bandit struct {
	names []string
	opts  BanditOptions

	mu      sync.Mutex
	classes map[string]*classStats
}

// NewBandit builds a bandit over a portfolio of len(armNames) arms. The
// names label arms in snapshots; they must match the portfolio order the
// caller plans with.
func NewBandit(armNames []string, opts BanditOptions) *Bandit {
	if opts.MinSamples <= 0 {
		opts.MinSamples = 3
	}
	if opts.RaceEvery == 0 {
		opts.RaceEvery = 16
	}
	return &Bandit{
		names:   append([]string(nil), armNames...),
		opts:    opts,
		classes: map[string]*classStats{},
	}
}

// Arms reports the portfolio size.
func (b *Bandit) Arms() int { return len(b.names) }

// class returns (creating if needed) the state of one class. Caller holds
// b.mu.
func (b *Bandit) class(key string) *classStats {
	c := b.classes[key]
	if c == nil {
		c = &classStats{arms: make([]armStats, len(b.names))}
		b.classes[key] = c
	}
	return c
}

// Decide picks solo-vs-race for one query of the given class. The decision
// order is: escalation (a prior budget kill) beats everything; then warmup
// (too few samples); then the staleness schedule; only then a learned solo.
// A class whose every observed arm has been killed keeps racing.
func (b *Bandit) Decide(class string) Decision {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.class(class)
	c.decisions++
	d := Decision{Class: class}
	if c.escalated {
		d.Reason = ReasonEscalated
		return d
	}
	var successes int64
	for i := range c.arms {
		successes += c.arms[i].successes()
	}
	if successes < int64(b.opts.MinSamples) {
		d.Reason = ReasonWarmup
		return d
	}
	if b.opts.RaceEvery > 0 && c.decisions%int64(b.opts.RaceEvery) == 0 {
		d.Reason = ReasonStale
		return d
	}
	best, bestScore := -1, time.Duration(0)
	for i := range c.arms {
		a := &c.arms[i]
		if a.successes() == 0 {
			continue // never observed succeeding: not eligible solo
		}
		if s := a.score(); best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		d.Reason = ReasonWarmup
		return d
	}
	d.Solo, d.Arm, d.ArmName, d.Reason = true, best, b.names[best], ReasonLearned
	return d
}

// ObserveRaceWin records a full race of the class won by arm with the given
// first-result latency. A completed race also clears the class's kill
// escalation: the portfolio just demonstrated a live arm.
func (b *Bandit) ObserveRaceWin(class string, arm int, latency time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.class(class)
	if arm < 0 || arm >= len(c.arms) {
		return
	}
	c.escalated = false
	c.arms[arm].wins++
	c.arms[arm].latencySum += latency
}

// ObserveSolo records a solo run of arm that completed within the budget.
func (b *Bandit) ObserveSolo(class string, arm int, latency time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.class(class)
	if arm < 0 || arm >= len(c.arms) {
		return
	}
	c.arms[arm].solos++
	c.arms[arm].latencySum += latency
}

// ObserveKill records a solo run of arm that the engine's per-query budget
// killed: evidence against the arm, and the class escalates — its next
// decision is a full race regardless of the statistics.
func (b *Bandit) ObserveKill(class string, arm int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.class(class)
	if arm < 0 || arm >= len(c.arms) {
		return
	}
	c.escalated = true
	c.arms[arm].kills++
}

// ArmSummary is one arm's evidence aggregated across every class.
type ArmSummary struct {
	Name          string `json:"name"`
	RaceWins      int64  `json:"race_wins"`
	SoloRuns      int64  `json:"solo_runs"`
	Kills         int64  `json:"kills"`
	MeanLatencyUS int64  `json:"mean_latency_us"`
}

// BanditSnapshot is a point-in-time copy of the bandit's learned state,
// shaped for a serving layer's /stats endpoint.
type BanditSnapshot struct {
	// Classes is how many distinct traffic classes have been observed.
	Classes int `json:"classes"`
	// Escalated is how many classes currently have a kill escalation
	// pending (their next decision races).
	Escalated int `json:"escalated"`
	// Arms summarizes each portfolio arm across all classes, in portfolio
	// order.
	Arms []ArmSummary `json:"arms"`
}

// Snapshot aggregates the per-class statistics into one per-arm view. Safe
// to call while decisions and observations are in flight.
func (b *Bandit) Snapshot() BanditSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := BanditSnapshot{Classes: len(b.classes), Arms: make([]ArmSummary, len(b.names))}
	sums := make([]time.Duration, len(b.names))
	for i, name := range b.names {
		snap.Arms[i].Name = name
	}
	for _, c := range b.classes {
		if c.escalated {
			snap.Escalated++
		}
		for i := range c.arms {
			snap.Arms[i].RaceWins += c.arms[i].wins
			snap.Arms[i].SoloRuns += c.arms[i].solos
			snap.Arms[i].Kills += c.arms[i].kills
			sums[i] += c.arms[i].latencySum
		}
	}
	for i := range snap.Arms {
		if n := snap.Arms[i].RaceWins + snap.Arms[i].SoloRuns; n > 0 {
			snap.Arms[i].MeanLatencyUS = (sums[i] / time.Duration(n)).Microseconds()
		}
	}
	return snap
}
