// Package metrics implements the paper's measurement methodology (§3.5):
// per-query execution timing under a kill cap, the easy / 2″–600″ / hard
// classification, the (max/min) and speedup* metrics, and the two
// aggregation disciplines — Workload-Level Aggregation (WLA) and Query-Level
// Average (QLA) — whose distinction the paper argues is essential in the
// presence of straggler queries.
package metrics

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Class buckets a query by execution time. The paper's absolute thresholds
// (2 seconds / 600 seconds) are a 1:300 ratio that Budget preserves at any
// cap.
type Class int

const (
	// Easy queries finish below Cap × easyFraction ("under 2 seconds").
	Easy Class = iota
	// Mid queries finish between the easy threshold and the cap (the
	// paper's 2″–600″ band).
	Mid
	// Hard queries hit the cap and are killed.
	Hard
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Easy:
		return "easy"
	case Mid:
		return "2''-600''"
	case Hard:
		return "hard"
	default:
		return "unknown"
	}
}

// Timing is one measured execution.
type Timing struct {
	Elapsed time.Duration
	// Killed marks executions that hit a deadline. One the cap killed has
	// Elapsed equal to the cap, the value the paper substitutes for killed
	// queries; one the caller's earlier deadline killed has the time it ran.
	Killed bool
	// Err records non-deadline failures (nil in normal operation).
	Err error
}

// Seconds returns the elapsed time in seconds (the unit used in FTV plots).
func (t Timing) Seconds() float64 { return t.Elapsed.Seconds() }

// easyFraction positions the easy threshold relative to the cap: 1/300, the
// paper's 2″/600″ ratio.
const easyFraction = 1.0 / 300.0

// Budget is the query-time accounting regime.
type Budget struct {
	// Cap is the kill limit (the paper's 10 minutes).
	Cap time.Duration
}

// easyThreshold returns the easy/mid boundary.
func (b Budget) easyThreshold() time.Duration {
	return time.Duration(float64(b.Cap) * easyFraction)
}

// Classify assigns a timing to its class.
func (b Budget) Classify(t Timing) Class {
	if t.Killed {
		return Hard
	}
	if t.Elapsed < b.easyThreshold() {
		return Easy
	}
	return Mid
}

// Run executes fn under the cap: fn receives a context that expires at the
// cap, or at ctx's own deadline if that comes first, and must return
// promptly after expiry (all matchers in this module do). When a deadline
// was hit the returned timing has Killed set and Elapsed the cap if the cap
// fired, or the time fn ran if ctx's deadline did; Elapsed never exceeds the
// cap.
func (b Budget) Run(ctx context.Context, fn func(ctx context.Context) error) Timing {
	runCtx, cancel := context.WithTimeout(ctx, b.Cap)
	defer cancel()
	start := time.Now()
	err := fn(runCtx)
	elapsed := min(time.Since(start), b.Cap)
	if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(runCtx.Err(), context.DeadlineExceeded)) {
		if ctx.Err() == nil {
			elapsed = b.Cap // only the cap can have fired
		}
		return Timing{Elapsed: elapsed, Killed: true}
	}
	return Timing{Elapsed: elapsed, Err: err}
}

// Counters is the set of monotonic execution counters a long-lived query
// engine accumulates across its lifetime — the operational face of the
// paper's per-query measurements. Every field is updated atomically, so one
// Counters value may be bumped from any number of concurrently executing
// queries and snapshotted at any time (a serving layer's /metrics endpoint
// reads it while queries are in flight). The zero value is ready to use.
type Counters struct {
	// Queries counts executed queries (collected and streamed alike).
	Queries atomic.Int64
	// Streamed counts the subset of Queries that ran in streaming mode.
	Streamed atomic.Int64
	// Killed counts queries that hit the per-query kill cap.
	Killed atomic.Int64
	// Errors counts queries that failed with a non-deadline error.
	Errors atomic.Int64
	// RaceAttempts counts matcher attempts started inside Ψ races (the
	// per-query attempt portfolio size, summed over queries).
	RaceAttempts atomic.Int64
	// PredictedSolo counts predicted single-attempt runs that completed
	// within their solo budget.
	PredictedSolo atomic.Int64
	// Fallbacks counts predicted runs that overran the solo budget and
	// fell back to a full race.
	Fallbacks atomic.Int64
	// IndexRaces counts dataset queries whose candidates raced more than
	// one arm: the verifier under more than one rewriting.
	IndexRaces atomic.Int64
	// IndexAttempts counts filter→verify pipelines started, one per launch:
	// a query's one pipeline, plus the abandoned solo before a fallback.
	// Like RaceAttempts, it counts when the pipeline starts, so a query that
	// is killed or fails still counts its work.
	IndexAttempts atomic.Int64
	// PolicySolo counts auto-policy queries planned as a single learned
	// arm instead of a full race.
	PolicySolo atomic.Int64
	// PolicyRaces counts auto-policy queries that raced the full portfolio
	// (warmup, staleness or kill escalation).
	PolicyRaces atomic.Int64
	// PolicyEscalations counts the subset of PolicyRaces forced by a prior
	// budget-killed solo attempt of the same query class.
	PolicyEscalations atomic.Int64
	// GraphsAdded counts graphs ingested into a mutable dataset engine.
	GraphsAdded atomic.Int64
	// GraphsRemoved counts graphs deleted from a mutable dataset engine.
	GraphsRemoved atomic.Int64
	// GraphsReplaced counts in-place graph replacements on a mutable
	// dataset engine.
	GraphsReplaced atomic.Int64
	// Compactions counts shard-local rebuilds triggered by the tombstone
	// threshold of a mutable dataset engine.
	Compactions atomic.Int64
}

// CountersSnapshot is a plain-value copy of Counters, safe to serialize.
type CountersSnapshot struct {
	Queries           int64 `json:"queries"`
	Streamed          int64 `json:"streamed"`
	Killed            int64 `json:"killed"`
	Errors            int64 `json:"errors"`
	RaceAttempts      int64 `json:"race_attempts"`
	PredictedSolo     int64 `json:"predicted_solo"`
	Fallbacks         int64 `json:"fallbacks"`
	IndexRaces        int64 `json:"index_races"`
	IndexAttempts     int64 `json:"index_attempts"`
	PolicySolo        int64 `json:"policy_solo"`
	PolicyRaces       int64 `json:"policy_races"`
	PolicyEscalations int64 `json:"policy_escalations"`
	GraphsAdded       int64 `json:"graphs_added"`
	GraphsRemoved     int64 `json:"graphs_removed"`
	GraphsReplaced    int64 `json:"graphs_replaced"`
	Compactions       int64 `json:"compactions"`
}

// Snapshot returns a point-in-time copy of every counter. Counters keep
// moving while the snapshot is taken; each field is individually exact.
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		Queries:           c.Queries.Load(),
		Streamed:          c.Streamed.Load(),
		Killed:            c.Killed.Load(),
		Errors:            c.Errors.Load(),
		RaceAttempts:      c.RaceAttempts.Load(),
		PredictedSolo:     c.PredictedSolo.Load(),
		Fallbacks:         c.Fallbacks.Load(),
		IndexRaces:        c.IndexRaces.Load(),
		IndexAttempts:     c.IndexAttempts.Load(),
		PolicySolo:        c.PolicySolo.Load(),
		PolicyRaces:       c.PolicyRaces.Load(),
		PolicyEscalations: c.PolicyEscalations.Load(),
		GraphsAdded:       c.GraphsAdded.Load(),
		GraphsRemoved:     c.GraphsRemoved.Load(),
		GraphsReplaced:    c.GraphsReplaced.Load(),
		Compactions:       c.Compactions.Load(),
	}
}

// Summary holds the descriptive statistics the paper tabulates for its
// metrics (Tables 5–9): mean, standard deviation, min, max, median.
type Summary struct {
	Mean, StdDev, Min, Max, Median float64
	N                              int
}

// Summarize computes a Summary over xs; an empty input yields zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(ss / float64(len(xs)))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WLARatio is the Workload-Level Aggregation of two paired sample sets:
// avg(B) / avg(A) — "the improvement in the overall average execution
// time", the system-centric metric.
func WLARatio(a, b []float64) float64 {
	ma, mb := Mean(a), Mean(b)
	if mb == 0 {
		return 0
	}
	return ma / mb
}

// MaxMin is the paper's (max/min) metric over the execution times of a
// query's isomorphic instances: max_j(t_j) / min_j(t_j), minimum value 1.
func MaxMin(ts []float64) float64 {
	if len(ts) == 0 {
		return 0
	}
	lo, hi := ts[0], ts[0]
	for _, t := range ts {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// Speedup is the paper's speedup* metric: t_M / T where T is the best
// alternative's time — "what we lose in performance if we choose the
// original method over the various alternatives". Minimum value 1 when the
// original is among the alternatives.
func Speedup(original, best float64) float64 {
	if best == 0 {
		return 0
	}
	return original / best
}

// ClassCounts tallies classified timings.
type ClassCounts struct {
	Easy, Mid, Hard int
}

// Total returns the number of classified executions.
func (c ClassCounts) Total() int { return c.Easy + c.Mid + c.Hard }

// Pct returns the percentage of the given class (0 if no samples).
func (c ClassCounts) Pct(cl Class) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	switch cl {
	case Easy:
		return 100 * float64(c.Easy) / float64(t)
	case Mid:
		return 100 * float64(c.Mid) / float64(t)
	default:
		return 100 * float64(c.Hard) / float64(t)
	}
}

// Workload accumulates classified timings for one (method, dataset) cell of
// a Figure-1/2-style experiment.
type Workload struct {
	Budget  Budget
	Counts  ClassCounts
	easySum time.Duration
	midSum  time.Duration
}

// Add classifies and accumulates one timing, returning its class.
func (w *Workload) Add(t Timing) Class {
	c := w.Budget.Classify(t)
	switch c {
	case Easy:
		w.Counts.Easy++
		w.easySum += t.Elapsed
	case Mid:
		w.Counts.Mid++
		w.midSum += t.Elapsed
	default:
		w.Counts.Hard++
	}
	return c
}

// AvgEasy returns the WLA average execution time of easy queries.
func (w *Workload) AvgEasy() time.Duration {
	if w.Counts.Easy == 0 {
		return 0
	}
	return w.easySum / time.Duration(w.Counts.Easy)
}

// AvgMid returns the WLA average execution time of 2″–600″ queries.
func (w *Workload) AvgMid() time.Duration {
	if w.Counts.Mid == 0 {
		return 0
	}
	return w.midSum / time.Duration(w.Counts.Mid)
}

// AvgCompleted returns the WLA average over all completed (easy + mid)
// queries — the quantity whose domination by stragglers motivates the
// paper's Observation 1.
func (w *Workload) AvgCompleted() time.Duration {
	n := w.Counts.Easy + w.Counts.Mid
	if n == 0 {
		return 0
	}
	return (w.easySum + w.midSum) / time.Duration(n)
}
