package psi

// Planning: Plan is the one place the engine's launch policy — race, first
// or auto, whichever of Mode and IndexPolicy the engine kind reads — and the
// auto policy's bandit are turned into the arms a query starts, for stored-
// graph and dataset engines alike. Execution (launch) lives in execute.go.

import (
	"errors"
	"time"

	"github.com/psi-graph/psi/internal/predict"
)

// PlanKind says how Execute will run a planned query.
type PlanKind string

const (
	// PlanRace races the full attempt portfolio.
	PlanRace PlanKind = "race"
	// PlanPredicted runs only the auto policy's learned-best attempt, with
	// a full race as fallback if it overruns the solo budget.
	PlanPredicted PlanKind = "predicted"
	// PlanFixed runs a fixed single attempt with no fallback.
	PlanFixed PlanKind = "fixed"
	// PlanFTV answers a containment query through the engine's
	// filter-then-verify pipeline.
	PlanFTV PlanKind = "ftv"
)

// PolicyDecision reports how the auto policy planned one query: the
// query's traffic class, whether it runs one learned arm solo or races the
// full portfolio, and why. Carried on Plan.Decision and QueryResult.Policy
// for engines under ModeAuto / IndexAuto, nil everywhere else.
type PolicyDecision struct {
	// Class is the query's traffic class (log-bucketed size/shape key).
	Class string `json:"class"`
	// Solo is true when one arm runs alone; false means a full race.
	Solo bool `json:"solo"`
	// Arm is the portfolio position of the solo arm (valid when Solo).
	Arm int `json:"arm"`
	// ArmName labels the solo arm ("Grapes/1", "GQL-DND"); empty on races.
	ArmName string `json:"arm_name,omitempty"`
	// Reason says why: "learned" for solo; "warmup", "stale" or
	// "escalated" for races.
	Reason string `json:"reason"`
}

// PolicySnapshot is a point-in-time copy of an auto-policy engine's learned
// state: observed class count, pending escalations, per-arm evidence.
type PolicySnapshot = predict.BanditSnapshot

// PolicyArmSummary is one portfolio arm's aggregated evidence inside a
// PolicySnapshot: race wins, solo runs, kills, mean first-result latency.
type PolicyArmSummary = predict.ArmSummary

// PolicyStats reports the auto policy's learned state; ok is false for
// engines not under ModeAuto / IndexAuto. Safe to call while queries are in
// flight — the feed for a serving layer's /stats endpoint.
func (e *Engine) PolicyStats() (PolicySnapshot, bool) {
	if e.bandit == nil {
		return PolicySnapshot{}, false
	}
	return e.bandit.Snapshot(), true
}

// launchPolicy is how an engine picks the arms of a query. Mode (stored-graph
// engines) and IndexPolicy (dataset engines) each resolve to one at
// construction.
type launchPolicy uint8

const (
	// launchRace starts every arm of the portfolio — the paper's Ψ.
	launchRace launchPolicy = iota
	// launchFirst starts the portfolio's first arm alone, with no fallback.
	launchFirst
	// launchAuto asks the bandit: its learned arm alone under the solo
	// budget, escalating to every arm on an overrun, or every arm at once.
	launchAuto
)

// decide runs the bandit for one query, translating the policy's verdict
// into the exported decision record.
func (e *Engine) decide(q *Graph) *PolicyDecision {
	d := e.bandit.Decide(predict.ClassKey(q))
	pd := &PolicyDecision{Class: d.Class, Solo: d.Solo, Arm: d.Arm, Reason: d.Reason}
	if d.Solo {
		if e.g != nil {
			pd.ArmName = e.attempts[d.Arm].Label()
		} else {
			pd.ArmName = e.ixNames[d.Arm]
		}
	}
	return pd
}

// Plan is an executable query plan produced by Engine.Plan. Plans are
// cheap, single-use value carriers: planning touches no stored-graph data,
// only the query's O(|q|) class key.
type Plan struct {
	// Query is the planned query graph.
	Query *Graph
	// Kind is the selected execution strategy.
	Kind PlanKind
	// Attempts are the contenders Execute will run (NFV plans).
	Attempts []Attempt
	// Predicted is the portfolio index of the auto policy's pick for
	// PlanPredicted plans, -1 otherwise.
	Predicted int
	// IndexPolicy records how a PlanFTV plan runs the engine's filtering
	// indexes — IndexRace or IndexFixed; empty for NFV plans.
	IndexPolicy string
	// Indexes names the filtering indexes the plan will consult, in
	// portfolio order (PlanFTV plans only).
	Indexes []string
	// Deadline is the per-query cap Execute will enforce (0: none).
	Deadline time.Duration
	// Decision is the auto policy's solo-vs-race verdict for this query
	// (ModeAuto / IndexAuto engines only, nil otherwise).
	Decision *PolicyDecision
	// Epoch is the dataset epoch current at planning time (mutable dataset
	// engines only, 0 otherwise). Execution always runs against the epoch
	// current when Execute starts — QueryResult.Epoch reports which — so a
	// mutation between Plan and Execute shows up as a differing pair.
	Epoch uint64

	engine *Engine
	// arms are the portfolio positions launch starts first: nil for every
	// arm, else the fixed first arm or the auto policy's solo pick.
	arms []int
}

// Plan selects the arms q starts with under the engine's launch policy: the
// whole portfolio, its fixed first arm, or — under the auto policy, once the
// query's class has warmed up — the learned arm alone. For a stored-graph
// engine the arms are attempts (Kind and Attempts say which); for a dataset
// engine they are the filtering indexes of the PlanFTV pipeline.
func (e *Engine) Plan(q *Graph) (*Plan, error) {
	if q == nil {
		return nil, errors.New("psi: Plan requires a query graph")
	}
	p := &Plan{Query: q, Kind: PlanRace, Predicted: -1, Deadline: e.budget.Cap, engine: e}
	switch e.policy {
	case launchFirst:
		p.Kind, p.arms = PlanFixed, []int{0}
	case launchAuto:
		p.Decision = e.decide(q)
		if p.Decision.Solo {
			p.Kind, p.arms = PlanPredicted, []int{p.Decision.Arm}
		}
	}
	if e.g == nil {
		p.Kind = PlanFTV
		p.IndexPolicy = e.IndexPolicy()
		p.Epoch = e.Epoch()
		p.Indexes = append(p.Indexes, e.ixNames...)
		return p, nil
	}
	if p.Kind == PlanPredicted {
		p.Predicted = p.Decision.Arm
	}
	// The plan is a public value: never alias the engine's portfolio,
	// which a caller could then mutate under every future query.
	p.Attempts = append([]Attempt(nil), e.attemptsOf(p.arms)...)
	return p, nil
}

// attemptsOf resolves arms (portfolio positions; nil means every arm) to the
// stored-graph engine's attempts.
func (e *Engine) attemptsOf(arms []int) []Attempt {
	if arms == nil {
		return e.attempts
	}
	out := make([]Attempt, len(arms))
	for i, a := range arms {
		out[i] = e.attempts[a]
	}
	return out
}
