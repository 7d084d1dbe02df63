package psi

// Execution: the entry points — Query, QueryStream, Execute, AnswerStream —
// are a few lines each over one body, run, for both engine kinds. run checks
// the plan, counts the query, pins a dataset's snapshot, sets up where the
// answer goes and launches the plan's arms under the budget (runBudgeted);
// launch, the one carrier of a plan, decides which arms start and what the
// bandit learns, with the solo→escalate step (soloFirst) inside it. Only the
// race differs by kind: raceAttempts races a stored graph's attempts,
// raceVerifiers a dataset snapshot's verifiers on every candidate.

import (
	"context"
	"errors"
	"time"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/metrics"
	"github.com/psi-graph/psi/internal/predict"
)

// QueryResult is the outcome of one executed plan.
type QueryResult struct {
	// Embeddings holds the matched embeddings (NFV, collecting execution
	// only; QueryStream sends them to the sink instead).
	Embeddings []Embedding
	// Found is the number of answers surfaced, whether collected here or
	// streamed: embeddings on a stored graph, containing graph IDs on a
	// dataset.
	Found int
	// GraphIDs are the containing dataset graphs (FTV, collecting execution
	// only; AnswerStream sends them to emit instead), ascending.
	GraphIDs []int
	// Winner labels the attempt that produced the answer, e.g. "GQL-DND",
	// or on a dataset the verifier that decided most candidates, e.g.
	// "Grapes/1" (ties go to the earlier-listed name's).
	Winner string
	// Kind echoes how the executed plan launched its arms; FellBack marks a
	// PlanPredicted solo arm that overran its solo budget and re-ran as a
	// race.
	Kind     PlanKind
	FellBack bool
	// Policy echoes the auto policy's decision for this query (ModeAuto /
	// IndexAuto engines only, nil otherwise).
	Policy *PolicyDecision
	// Epoch is the dataset epoch the query executed against (mutable
	// dataset engines only, 0 otherwise): the answer is byte-identical to
	// a from-scratch engine over that epoch's dataset.
	Epoch uint64
	// Elapsed is the measured execution time; when the engine has a
	// deadline, Killed marks queries that hit it (Elapsed is then clamped
	// to the cap, the substitution the paper's methodology prescribes)
	// and Class buckets the timing against the paper's easy/mid/hard
	// thresholds. A kill is never an error: a killed collecting run
	// surfaces an empty answer, and a killed streaming run keeps Found at
	// the number of embeddings or graph IDs that reached the caller before
	// the kill.
	Elapsed time.Duration
	Killed  bool
	Class   metrics.Class

	// observed marks that the execution already fed the bandit (solo
	// completion, in-query fallback, or race win), so the post-budget kill
	// hook must not double-record.
	observed bool
	// streamed counts the answers that reached a streaming caller, which
	// cannot be retracted: a killed run reports them as Found and an overrun
	// solo that has any is committed.
	streamed int
	// won is Winner's position among the engine's arms, set with it.
	won int
}

// Contained reports whether the query was found at all.
func (r *QueryResult) Contained() bool { return r.Found > 0 || len(r.GraphIDs) > 0 }

// Query plans and executes q in one call — the convenience path.
func (e *Engine) Query(ctx context.Context, q *Graph, limit int) (*QueryResult, error) {
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, p, limit)
}

// QueryStream plans and executes q on a stored-graph engine, emitting
// embeddings into sink as they are found; the first attempt to emit is
// adopted and the rest are cancelled, so first-result latency does not wait
// for full enumeration. The result's Found counts the embeddings handed to
// the sink. Dataset engines stream graph IDs through AnswerStream instead.
func (e *Engine) QueryStream(ctx context.Context, q *Graph, limit int, sink Sink) (*QueryResult, error) {
	if sink == nil {
		return nil, errors.New("psi: QueryStream requires a sink")
	}
	if e.g == nil {
		return nil, errors.New("psi: a dataset engine streams graph IDs through AnswerStream, not embeddings")
	}
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, p, limit, sink, nil)
}

// Execute runs a plan and collects its answer. Up to limit embeddings are
// returned on a stored graph (limit <= 0: decision, stop at the first); a
// dataset ignores limit and returns containing graph IDs. When the engine has
// a deadline, a query that hits it is not an error: the result comes back
// with Killed set, Class Hard and an empty answer.
func (e *Engine) Execute(ctx context.Context, p *Plan, limit int) (*QueryResult, error) {
	return e.run(ctx, p, limit, nil, nil)
}

// AnswerStream streams a dataset engine's containment answer: each
// containing graph ID is handed to emit as soon as its verification — and
// that of every candidate before it — settles, in the same ascending order
// Query returns. emit returning false cancels the outstanding work. emit
// runs on verification goroutines, one call at a time; the ordered stream
// waits for it, so it must not block on work that only proceeds after
// AnswerStream returns. The result is the execution report a serving layer
// needs alongside the stream: the winning verifier, the measured time and —
// when the engine has a per-query deadline — the kill marker, with Found
// keeping the count of graph IDs that reached emit before the kill. Its
// GraphIDs stays nil; the IDs go to emit.
func (e *Engine) AnswerStream(ctx context.Context, q *Graph, emit func(graphID int) bool) (*QueryResult, error) {
	if e.g != nil {
		return nil, errors.New("psi: AnswerStream requires a dataset engine")
	}
	if emit == nil {
		return nil, errors.New("psi: AnswerStream requires an emit function")
	}
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, p, 0, nil, emit)
}

// run is the one execution body behind every entry point, for both engine
// kinds. The answer streams into sink (a stored graph's embeddings) or emit
// (a dataset's ascending graph IDs) as it is found; with neither it is
// collected on the result, a buffer nobody has seen yet, so an overrun solo
// can start over and a kill surfaces an empty answer. A streaming run is
// committed by its first emission, and a kill keeps Found at what already
// reached the caller.
func (e *Engine) run(ctx context.Context, p *Plan, limit int, sink Sink, emit func(graphID int) bool) (*QueryResult, error) {
	if p == nil || p.engine != e {
		return nil, errors.New("psi: Execute requires a plan from this engine's Plan")
	}
	// A dataset query pins the store's current snapshot for the whole
	// execution: a concurrent mutation installs its successor without
	// disturbing this query, and the result records which epoch answered.
	var snap *live.Snapshot
	if e.g == nil {
		if snap = e.pin(); snap == nil {
			return nil, errors.New("psi: engine closed")
		}
	}
	e.counters.Queries.Add(1)
	res := &QueryResult{Kind: p.Kind, Policy: p.Decision}
	if e.mutable {
		res.Epoch = snap.Epoch()
	}
	switch {
	case sink != nil:
		e.counters.Streamed.Add(1)
		inner := sink
		sink = SinkFunc(func(em Embedding) bool {
			res.streamed++
			return inner.Emit(em)
		})
	case emit != nil:
		e.counters.Streamed.Add(1)
		inner := emit
		emit = func(id int) bool {
			res.Found++
			res.streamed++
			e.tallyShardID(snap, id)
			return inner(id)
		}
	case snap != nil:
		emit = func(id int) bool {
			res.Found++
			res.GraphIDs = append(res.GraphIDs, id)
			return true
		}
	}
	var race raceFunc
	if snap != nil {
		race = e.raceVerifiers(p.Query, snap, res, emit)
	} else {
		race = e.raceAttempts(p.Query, limit, res, sink)
	}
	err := e.runBudgeted(ctx, res, func(ctx context.Context) error {
		return e.launch(ctx, p, res, race)
	})
	if err != nil {
		return nil, err
	}
	if res.Killed {
		res.Embeddings, res.GraphIDs, res.Found = nil, nil, res.streamed
	}
	for _, id := range res.GraphIDs {
		e.tallyShardID(snap, id) // a streamed ID was tallied as it reached emit
	}
	return res, nil
}

// raceAttempts races a stored-graph query's arms, attempts of the portfolio,
// through the Racer: into sink when there is one, else collecting the
// embeddings on res.
func (e *Engine) raceAttempts(q *Graph, limit int, res *QueryResult, sink Sink) raceFunc {
	return func(ctx context.Context, arms []int) (int, time.Duration, error) {
		attempts := pick(e.attempts, arms)
		e.counters.RaceAttempts.Add(int64(len(attempts)))
		var (
			r   core.Result
			err error
		)
		if sink != nil {
			r, err = e.racer.RaceStream(ctx, q, limit, attempts, sink)
		} else {
			r, err = e.racer.Race(ctx, q, limit, attempts)
		}
		if err != nil {
			return 0, 0, err
		}
		res.Embeddings, res.Found = r.Embeddings, r.Found
		winner := r.WinnerIndex
		if arms != nil {
			winner = arms[winner]
		}
		return winner, r.Elapsed, nil
	}
}

// raceVerifiers races a dataset query's arms, verifiers of the pinned
// snapshot's table, on every candidate through core.StreamFTV, handing the
// ascending graph IDs to emit as they settle. The query's winner is the
// verifier that decided most candidates, the earliest on a tie.
func (e *Engine) raceVerifiers(q *Graph, snap *live.Snapshot, res *QueryResult, emit func(graphID int) bool) raceFunc {
	return func(ctx context.Context, arms []int) (int, time.Duration, error) {
		vs := pick(e.verifiers, arms)
		// Counted when it starts, as RaceAttempts is: a pipeline that is
		// killed, fails or is abandoned for a fallback still ran.
		e.counters.IndexAttempts.Add(1)
		if len(vs) > 1 {
			e.counters.IndexRaces.Add(1)
		}
		start := time.Now()
		wins, err := core.StreamFTV(ctx, e.pool, snap.Table(), vs, snap.Frequencies(), e.rewritings, q, emit)
		if err != nil {
			return 0, 0, err
		}
		won := 0
		for i, n := range wins {
			if n > wins[won] {
				won = i
			}
		}
		if arms != nil {
			won = arms[won]
		}
		return won, time.Since(start), nil
	}
}

// runBudgeted is the one budget/kill wrapper: it runs a query body under the
// engine's per-query cap (when it has one), records the timing on res, and
// folds the outcome into the operational counters. A query that hits the cap
// is not an error — the deadline is engine policy, reported the way the
// paper's methodology records it: res.Killed set, Class Hard, Elapsed the cap
// (or the time taken, when the caller's own earlier deadline fired); the
// caller trims the answer to what irrevocably surfaced.
func (e *Engine) runBudgeted(ctx context.Context, res *QueryResult, run func(context.Context) error) error {
	var err error
	if e.budget.Cap > 0 {
		t := e.budget.Run(ctx, run)
		res.Elapsed, res.Killed, err = t.Elapsed, t.Killed, t.Err
		res.Class = e.budget.Classify(t)
	} else {
		start := time.Now()
		err = run(ctx)
		res.Elapsed = time.Since(start)
	}
	if err != nil {
		e.counters.Errors.Add(1)
		return err
	}
	if res.Killed {
		e.observeKill(res)
	}
	e.tally(res)
	return nil
}

// observeKill feeds a budget-killed solo run into the bandit as evidence
// against the arm — unless the execution already recorded its own outcome
// (an in-query fallback observed the kill before re-racing). Caller
// cancellations never reach here: they surface as errors, not kills, so a
// client disconnect leaves the learned statistics untouched.
func (e *Engine) observeKill(res *QueryResult) {
	d := res.Policy
	if e.bandit == nil || d == nil || !d.Solo || res.observed {
		return
	}
	e.bandit.ObserveKill(d.Class, d.Arm)
}

// tally folds one finished (possibly killed) result into the engine's
// operational counters.
func (e *Engine) tally(res *QueryResult) {
	if res.Killed {
		e.counters.Killed.Add(1)
	}
	if res.Winner != "" {
		e.wins[res.won].Add(1)
	}
	if res.FellBack {
		e.counters.Fallbacks.Add(1)
	} else if res.Kind == PlanPredicted && !res.Killed {
		e.counters.PredictedSolo.Add(1)
	}
	if d := res.Policy; d != nil {
		if d.Solo {
			e.counters.PolicySolo.Add(1)
		} else {
			e.counters.PolicyRaces.Add(1)
			if d.Reason == predict.ReasonEscalated {
				e.counters.PolicyEscalations.Add(1)
			}
		}
	}
}

// raceFunc races the given arms of the engine's portfolio (positions; nil
// means every arm) against each other, surfacing the winner's answer, and
// reports which arm won and how long that arm itself took.
type raceFunc func(ctx context.Context, arms []int) (winner int, elapsed time.Duration, err error)

// launch carries a plan out, for both engine kinds: the plan's arms go
// through race — every arm, the fixed first arm, or the auto policy's solo
// pick under soloFirst — and the arm that answers labels res.Winner. A race
// of the whole portfolio under the auto policy trains the bandit with the
// winner's own time (and clears any kill escalation).
func (e *Engine) launch(ctx context.Context, p *Plan, res *QueryResult, race raceFunc) error {
	d := p.Decision
	if e.bandit == nil {
		d = nil
	}
	start := func(ctx context.Context, arms []int) (time.Duration, error) {
		winner, elapsed, err := race(ctx, arms)
		if err != nil {
			return elapsed, err
		}
		res.Winner, res.won = e.arms[winner], winner
		if d != nil && arms == nil {
			res.observed = true
			e.bandit.ObserveRaceWin(d.Class, winner, elapsed)
		}
		return elapsed, nil
	}
	if d != nil && d.Solo {
		return e.soloFirst(ctx, res, d, p.arms, start)
	}
	_, err := start(ctx, p.arms)
	return err
}

// soloFirst is the one solo→escalate step: start the arm d trusts alone
// under the solo budget and, when it overruns before committing output, drop
// what it buffered and fall back to the full race. The bandit learns from either outcome. An overrun
// solo that already handed output to the caller is committed — a fallback
// would replay the stream from the start — so the overrun surfaces as the
// solo deadline error, a kill on a budgeted engine.
func (e *Engine) soloFirst(ctx context.Context, res *QueryResult, d *PolicyDecision, arm []int,
	start func(ctx context.Context, arms []int) (time.Duration, error)) error {
	soloCtx, cancel := context.WithTimeout(ctx, e.solo)
	elapsed, err := start(soloCtx, arm)
	cancel()
	if err == nil {
		res.observed = true
		e.bandit.ObserveSolo(d.Class, d.Arm, elapsed)
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err() // budget kill or caller cancel, not the solo budget
	}
	// The solo budget expired: evidence against the learned arm.
	res.observed = true
	e.bandit.ObserveKill(d.Class, d.Arm)
	if res.streamed > 0 {
		return err
	}
	res.FellBack = true
	res.Embeddings, res.GraphIDs, res.Found = nil, nil, 0 // whatever a collecting solo had buffered
	_, err = start(ctx, nil)
	return err
}
