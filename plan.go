package psi

// Planning: Plan is the one place the engine's launch policy — race, first
// or auto, whichever of Mode and IndexPolicy the engine kind reads — and the
// auto policy's bandit are turned into the arms a query starts, for stored-
// graph and dataset engines alike. A plan carries what execution or a caller
// reads of that: the query, its kind, the labels of the arms it starts and
// the auto policy's decision. Execution (run, launch) lives in execute.go.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/psi-graph/psi/internal/predict"
)

// PlanKind says how a plan launches its arms, on either engine kind: a
// stored graph's attempts or a dataset's rewritings of its one verifier.
type PlanKind string

const (
	// PlanRace races every arm of the portfolio.
	PlanRace PlanKind = "race"
	// PlanPredicted runs only the auto policy's learned-best arm, with a
	// race of every arm as fallback if it overruns the solo budget.
	PlanPredicted PlanKind = "predicted"
	// PlanFixed runs the portfolio's first arm alone, with no fallback.
	PlanFixed PlanKind = "fixed"
)

// PolicyDecision reports how the auto policy planned one query: the query's
// traffic class, whether it runs one learned arm solo (Arm, labelled
// ArmName) or races the full portfolio, and why. Carried on Plan.Decision
// and QueryResult.Policy for engines under ModeAuto / IndexAuto, nil
// everywhere else.
type PolicyDecision = predict.Decision

// PolicySnapshot is a point-in-time copy of an auto-policy engine's learned
// state: observed class count, pending escalations, per-arm evidence.
type PolicySnapshot = predict.BanditSnapshot

// PolicyArmSummary is one portfolio arm's aggregated evidence inside a
// PolicySnapshot: race wins, solo runs, kills, mean first-result latency.
type PolicyArmSummary = predict.ArmSummary

// PolicyStats reports the auto policy's learned state; ok is false for
// engines not under ModeAuto / IndexAuto, a one-arm engine among them (its
// Mode is ModeSingle). Safe to call while queries are in flight — the feed
// for a serving layer's /stats endpoint.
func (e *Engine) PolicyStats() (PolicySnapshot, bool) {
	if e.bandit == nil {
		return PolicySnapshot{}, false
	}
	return e.bandit.Snapshot(), true
}

// launchPolicy is how an engine picks the arms of a query. Mode (stored-graph
// engines) and IndexPolicy (dataset engines) each resolve to one at
// construction, through resolveLaunch.
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

// launchModes is each launch policy in Mode's spelling, as Engine.Mode
// reports it.
var launchModes = [...]Mode{launchRace: ModeRace, launchFirst: ModeSingle, launchAuto: ModeAuto}

// resolveLaunch is the one resolution of an engine's launch policy, for both
// kinds: the kind's own field (Mode on a stored graph, IndexPolicy on a
// dataset) read over the engine's arms. The other kind's field is an error,
// not silently ignored, and fewer than two arms is nothing to race or learn
// over, so it is launchFirst whatever the field says.
func resolveLaunch(opts EngineOptions, dataset bool, arms int) (launchPolicy, error) {
	kind, field, value, otherField, other := "stored-graph", "Mode", string(opts.Mode), "IndexPolicy", opts.IndexPolicy
	names := []string{string(ModeRace), string(ModeSingle), string(ModeAuto)}
	if dataset {
		kind, field, value, otherField, other = "dataset", "IndexPolicy", opts.IndexPolicy, "Mode", string(opts.Mode)
		names = []string{IndexRace, IndexFixed, IndexAuto}
	}
	if other != "" {
		return 0, fmt.Errorf("psi: EngineOptions.%s (%q) does not apply to a %s engine; set %s", otherField, other, kind, field)
	}
	p := slices.Index(names, cmp.Or(value, names[launchRace]))
	if p < 0 {
		return 0, fmt.Errorf("psi: unknown EngineOptions.%s %q (want %v)", field, value, names)
	}
	if arms < 2 {
		return launchFirst, nil
	}
	return launchPolicy(p), nil
}

// Plan is an executable query plan produced by Engine.Plan. Plans are
// cheap, single-use value carriers: planning touches no stored-graph data,
// only the query's O(|q|) class key.
type Plan struct {
	// Query is the planned query graph.
	Query *Graph
	// Kind is how the plan launches its arms.
	Kind PlanKind
	// Arms labels the arms the plan starts, in portfolio order: a stored
	// graph's attempts ("GQL-DND") or a dataset's verifier under each
	// rewriting ("Grapes/1-DND"), in the order of EngineOptions.Rewritings.
	Arms []string
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
// query's class has warmed up — the learned arm alone. The arms are a stored
// graph's attempts or the rewritings each candidate of a dataset races.
func (e *Engine) Plan(q *Graph) (*Plan, error) {
	if q == nil {
		return nil, errors.New("psi: Plan requires a query graph")
	}
	p := &Plan{Query: q, Kind: PlanRace, engine: e}
	switch e.policy {
	case launchFirst:
		p.Kind, p.arms = PlanFixed, []int{0}
	case launchAuto:
		d := e.bandit.Decide(predict.ClassKey(q))
		if p.Decision = &d; d.Solo {
			p.Kind, p.arms = PlanPredicted, []int{d.Arm}
		}
	}
	// The plan is a public value: never alias the engine's labels, which a
	// caller could then mutate under every future query.
	p.Arms = slices.Clone(pick(e.arms, p.arms))
	return p, nil
}

// pick resolves arms (portfolio positions; nil means every arm) to the
// members of all at those positions.
func pick[T any](all []T, arms []int) []T {
	if arms == nil {
		return all
	}
	out := make([]T, len(arms))
	for i, a := range arms {
		out[i] = all[a]
	}
	return out
}
