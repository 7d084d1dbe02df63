package psi

// Execution: every entry point — Query, Execute, ExecuteStream, AnswerStream,
// AnswerStreamResult — is a thin collector over two bodies, execute (NFV
// races) and answer (the dataset pipeline). Each supplies how its arms are
// raced; launch, the one carrier of a plan, decides which are and what the
// bandit learns, with the solo→escalate step (soloFirst) inside it and the
// budget/kill wrapper (runBudgeted) and the counter tally around it.

import (
	"context"
	"errors"
	"time"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/metrics"
	"github.com/psi-graph/psi/internal/predict"
)

// QueryResult is the outcome of one executed plan.
type QueryResult struct {
	// Embeddings holds the matched embeddings (NFV, non-streaming
	// execution only; streaming sends them to the sink instead).
	Embeddings []Embedding
	// Found is the number of answers surfaced, whether collected here or
	// streamed: embeddings for NFV plans, containing graph IDs for FTV
	// plans.
	Found int
	// GraphIDs are the containing dataset graphs (FTV plans), ascending.
	GraphIDs []int
	// Winner labels the attempt (or index configuration) that produced
	// the answer, e.g. "GQL-DND".
	Winner string
	// IndexAttempts reports each filtering index's run for FTV plans
	// executed under the race policy: the adopted winner, the cancelled
	// losers and their timings — the index-level counterpart of the
	// matcher attempts behind Winner.
	IndexAttempts []IndexAttempt
	// Kind echoes the executed plan's strategy; FellBack marks an
	// auto-policy solo run (a PlanPredicted attempt or a solo index) that
	// overran its solo budget and re-ran as a race.
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
	// thresholds. A killed collecting run surfaces an empty answer; a
	// killed streaming run keeps Found at the number of embeddings that
	// reached the sink before the kill.
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

// QueryStream plans and executes q, streaming embeddings into sink.
func (e *Engine) QueryStream(ctx context.Context, q *Graph, limit int, sink Sink) (*QueryResult, error) {
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStream(ctx, p, limit, sink)
}

// Execute runs a plan and collects its answer. Up to limit embeddings are
// returned for NFV plans (limit <= 0: decision, stop at the first); FTV
// plans ignore limit and return containing graph IDs. When the engine has
// a deadline, a query that hits it is not an error: the result comes back
// with Killed set, Class Hard and an empty answer.
func (e *Engine) Execute(ctx context.Context, p *Plan, limit int) (*QueryResult, error) {
	return e.execute(ctx, p, limit, nil)
}

// ExecuteStream runs a plan, emitting embeddings into sink as they are
// found; the first attempt to emit is adopted and the rest are cancelled,
// so first-result latency does not wait for full enumeration. The result's
// Found counts the embeddings handed to the sink. Dataset (FTV) plans
// stream graph IDs through Engine.AnswerStream instead.
func (e *Engine) ExecuteStream(ctx context.Context, p *Plan, limit int, sink Sink) (*QueryResult, error) {
	if sink == nil {
		return nil, errors.New("psi: ExecuteStream requires a sink")
	}
	return e.execute(ctx, p, limit, sink)
}

func (e *Engine) execute(ctx context.Context, p *Plan, limit int, sink Sink) (*QueryResult, error) {
	if p == nil || p.engine != e {
		return nil, errors.New("psi: Execute requires a plan from this engine's Plan")
	}
	if p.Kind == PlanFTV {
		if sink != nil {
			return nil, errors.New("psi: FTV plans stream graph IDs via AnswerStream, not embeddings")
		}
		return e.answer(ctx, p, nil)
	}
	e.counters.Queries.Add(1)
	res := &QueryResult{Kind: p.Kind, Policy: p.Decision}
	if sink != nil {
		e.counters.Streamed.Add(1)
		inner := sink
		sink = SinkFunc(func(em Embedding) bool {
			res.streamed++
			return inner.Emit(em)
		})
	}
	race := func(ctx context.Context, arms []int) (int, time.Duration, error) {
		attempts := e.attemptsOf(arms)
		e.counters.RaceAttempts.Add(int64(len(attempts)))
		var (
			r   core.Result
			err error
		)
		if sink != nil {
			r, err = e.racer.RaceStream(ctx, p.Query, limit, attempts, sink)
		} else {
			r, err = e.racer.Race(ctx, p.Query, limit, attempts)
		}
		if err != nil {
			return 0, 0, err
		}
		res.Embeddings, res.Found, res.Winner = r.Embeddings, r.Found, r.Winner.Label()
		winner := r.WinnerIndex
		if arms != nil {
			winner = arms[winner]
		}
		return winner, r.Elapsed, nil
	}
	err := e.runBudgeted(ctx, res, func(runCtx context.Context) error {
		return e.launch(runCtx, p, res, race)
	})
	if err != nil {
		return nil, err
	}
	if res.Killed {
		res.Embeddings, res.Found = nil, res.streamed
	}
	return res, nil
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
	if e.shardK >= 2 && res.Kind == PlanFTV {
		e.counters.ShardedQueries.Add(1)
		if res.Killed {
			e.counters.ShardedKilled.Add(1)
		}
	}
	e.recordWin(res.Winner)
	// A single recorded attempt is a solo pipeline, not a race: it counts
	// toward the started-work total but not the race tally.
	if n := len(res.IndexAttempts); n > 1 {
		e.counters.IndexRaces.Add(1)
		e.counters.IndexAttempts.Add(int64(n))
	} else if n == 1 {
		e.counters.IndexAttempts.Add(1)
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
// pick under soloFirst — and a race of the whole portfolio under the auto
// policy trains the bandit with the winner's own time (and clears any kill
// escalation).
func (e *Engine) launch(ctx context.Context, p *Plan, res *QueryResult, race raceFunc) error {
	d := p.Decision
	if e.bandit == nil {
		d = nil
	}
	start := func(ctx context.Context, arms []int) (time.Duration, error) {
		winner, elapsed, err := race(ctx, arms)
		if err == nil && d != nil && arms == nil {
			res.observed = true
			e.bandit.ObserveRaceWin(d.Class, winner, elapsed)
		}
		return elapsed, err
	}
	if d != nil && d.Solo {
		return e.soloFirst(ctx, res, d, p.arms, start)
	}
	_, err := start(ctx, p.arms)
	return err
}

// soloFirst is the one solo→escalate step: start the arm d trusts alone
// under the solo budget and, when it overruns before committing output, fall
// back to the full race. The bandit learns from either outcome. An overrun
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
	_, err = start(ctx, nil)
	return err
}

// answer is the one dataset-query execution, behind every FTV entry point:
// pin the store's current snapshot and launch the plan's arms over its
// indexes through the engine's racer, under the budget. emit receives the
// ascending graph IDs as they settle; nil collects them into the result's
// GraphIDs instead. A collected answer is a buffer nobody has seen yet, so an
// overrun solo can always start over and a kill surfaces an empty answer,
// while a streaming run is committed by its first emission and a kill keeps
// Found at the number of IDs that reached emit.
func (e *Engine) answer(ctx context.Context, p *Plan, emit func(graphID int) bool) (*QueryResult, error) {
	// Pin the current snapshot for the whole execution: a concurrent
	// mutation installs its successor without disturbing this query, and
	// the result records which epoch answered.
	snap := e.pin()
	if snap == nil {
		return nil, errors.New("psi: engine closed")
	}
	e.counters.Queries.Add(1)
	res := &QueryResult{Kind: PlanFTV, Policy: p.Decision}
	if e.mutable {
		res.Epoch = snap.Epoch()
	}
	collecting := emit == nil
	if collecting {
		emit = func(id int) bool {
			res.GraphIDs = append(res.GraphIDs, id)
			return true
		}
	} else {
		e.counters.Streamed.Add(1)
	}
	race := func(ctx context.Context, arms []int) (int, time.Duration, error) {
		if res.FellBack {
			res.GraphIDs, res.Found = nil, 0 // whatever a collecting solo had buffered
			e.counters.IndexAttempts.Add(1)  // the abandoned solo still ran
		}
		r, err := e.ixRacer.Stream(ctx, snap.Indexes(), snap.Frequencies(), p.Query, arms, func(id int) bool {
			res.Found++
			if !collecting {
				res.streamed++
				e.tallyShardID(id)
			}
			return emit(id)
		})
		if err != nil {
			return 0, 0, err
		}
		res.Winner, res.IndexAttempts = r.Winner, r.Attempts
		return r.WinnerIndex, r.WinnerElapsed, nil
	}
	err := e.runBudgeted(ctx, res, func(ctx context.Context) error {
		return e.launch(ctx, p, res, race)
	})
	if err != nil {
		return nil, err
	}
	if collecting {
		if res.Killed {
			res.GraphIDs, res.Found = nil, 0
		}
		for _, id := range res.GraphIDs {
			e.tallyShardID(id)
		}
	}
	return res, nil
}

// ErrKilled reports a streamed query that hit the engine's per-query kill
// cap after part of its answer had already been emitted. Result-bearing
// paths report the kill through QueryResult.Killed instead.
var ErrKilled = errors.New("psi: query killed by the per-query budget")

// AnswerStream streams a dataset engine's containment answer: each
// containing graph ID is handed to emit as soon as its verification — and
// that of every candidate before it — settles, in the same ascending order
// Query returns. emit returning false cancels the outstanding work. emit
// runs on verification goroutines, one call at a time; the ordered stream
// waits for it, so it must not block on work that only proceeds after
// AnswerStream returns. On an engine with a per-query budget, a query that hits the cap
// returns ErrKilled: this signature has no result to carry the kill marker,
// and a truncated ID stream must not read as a complete answer. Use
// AnswerStreamResult to observe kills as data.
func (e *Engine) AnswerStream(ctx context.Context, q *Graph, emit func(graphID int) bool) error {
	res, err := e.AnswerStreamResult(ctx, q, emit)
	if err != nil {
		return err
	}
	if res.Killed {
		return ErrKilled
	}
	return nil
}

// AnswerStreamResult is AnswerStream with the execution report a serving
// layer needs alongside the stream: the winning index configuration, the
// per-index attempts of the query, the measured time and — when the engine
// has a per-query deadline — the kill marker, with Found keeping the count of
// graph IDs that irrevocably reached emit before the kill. The result's
// GraphIDs stays nil; the IDs go to emit.
func (e *Engine) AnswerStreamResult(ctx context.Context, q *Graph, emit func(graphID int) bool) (*QueryResult, error) {
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
	return e.answer(ctx, p, emit)
}
