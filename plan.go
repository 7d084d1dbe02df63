package psi

// Planning: Plan is the one place the engine's launch policy — race, first
// or auto, whichever of Mode and IndexPolicy the engine kind reads — and the
// auto policy's bandit are turned into the arms a query starts, for stored-
// graph and dataset engines alike. A plan carries what execution or a caller
// reads of that: the query, its kind, the arms (named by Attempts or
// Indexes) and the auto policy's decision. Execution (run, launch) lives in
// execute.go.

import (
	"errors"

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
			pd.ArmName = e.verifiers[d.Arm].Name()
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
	// Indexes names the engine's verifiers, in the order of the names that
	// selected them (PlanFTV plans only).
	Indexes []string
	// Decision is the auto policy's solo-vs-race verdict for this query
	// (ModeAuto / IndexAuto engines only, nil otherwise); its Arm is the
	// solo pick of a PlanPredicted plan.
	Decision *PolicyDecision

	engine *Engine
	// arms are the portfolio positions launch starts first: nil for every
	// arm, else the fixed first arm or the auto policy's solo pick.
	arms []int
}

// Plan selects the arms q starts with under the engine's launch policy: the
// whole portfolio, its fixed first arm, or — under the auto policy, once the
// query's class has warmed up — the learned arm alone. For a stored-graph
// engine the arms are attempts (Kind and Attempts say which); for a dataset
// engine they are the verifiers each candidate of the PlanFTV pipeline races.
func (e *Engine) Plan(q *Graph) (*Plan, error) {
	if q == nil {
		return nil, errors.New("psi: Plan requires a query graph")
	}
	p := &Plan{Query: q, Kind: PlanRace, engine: e}
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
		p.Indexes = e.armNames()
		return p, nil
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
