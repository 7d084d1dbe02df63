package psi

// Planning: Plan selects how one query will run — which attempts (NFV) or
// which index policy (FTV) — and decide asks the auto policy's bandit for its
// solo-vs-race verdict. Execution lives in execute.go.

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

	// observed marks that the execution already fed the bandit (solo
	// completion, in-query fallback, or race win), so the post-budget kill
	// hook must not double-record.
	observed bool
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

// decide runs the bandit for one query, translating the policy's verdict
// into the exported decision record. Returns nil when the engine is not
// under the auto policy.
func (e *Engine) decide(q *Graph) *PolicyDecision {
	if e.bandit == nil {
		return nil
	}
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
}

// Plan selects the attempt portfolio for q under the engine's mode:
// a full race, the auto policy's learned single attempt (once the query's
// class has warmed up), a fixed single attempt, or the FTV pipeline for
// dataset engines.
func (e *Engine) Plan(q *Graph) (*Plan, error) {
	if q == nil {
		return nil, errors.New("psi: Plan requires a query graph")
	}
	p := &Plan{Query: q, Predicted: -1, Deadline: e.budget.Cap, engine: e}
	if e.g == nil {
		p.Kind = PlanFTV
		p.IndexPolicy = e.ixPolicy
		p.Decision = e.decide(q)
		p.Epoch = e.Epoch()
		p.Indexes = append(p.Indexes, e.ixNames...)
		return p, nil
	}
	switch e.mode {
	case ModeSingle:
		p.Kind = PlanFixed
		p.Attempts = e.attempts[:1]
	case ModeAuto:
		p.Decision = e.decide(q)
		if p.Decision.Solo {
			p.Kind = PlanPredicted
			p.Predicted = p.Decision.Arm
			p.Attempts = e.attempts[p.Predicted : p.Predicted+1]
		} else {
			p.Kind = PlanRace
			p.Attempts = e.attempts
		}
	default:
		p.Kind = PlanRace
		p.Attempts = e.attempts
	}
	// The plan is a public value: never alias the engine's portfolio,
	// which a caller could then mutate under every future query.
	p.Attempts = append([]Attempt(nil), p.Attempts...)
	return p, nil
}
