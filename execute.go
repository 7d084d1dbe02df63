package psi

// Execution: every entry point — Query, Execute, ExecuteStream, AnswerStream,
// AnswerStreamResult — is a thin collector over two bodies, execute (NFV
// races) and answer (the dataset pipeline), which share the budget/kill
// wrapper (runBudgeted), the solo→escalate step (soloFirst) and the counter
// tally.

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
		return e.answer(ctx, p.Query, p.Decision, nil)
	}
	e.counters.Queries.Add(1)
	res := &QueryResult{Kind: p.Kind, Policy: p.Decision}
	streamed := 0
	if sink != nil {
		e.counters.Streamed.Add(1)
		// Count what actually reaches the caller, so a killed streaming
		// run can still report the embeddings it irrevocably surfaced.
		inner := sink
		sink = SinkFunc(func(em Embedding) bool {
			streamed++
			return inner.Emit(em)
		})
	}
	err := e.runBudgeted(ctx, res, func(runCtx context.Context) error {
		if p.Kind == PlanPredicted {
			return e.runPredicted(runCtx, p, limit, sink, res, func() bool { return streamed > 0 })
		}
		return e.runRace(runCtx, p.Query, p.Attempts, limit, sink, res)
	})
	if err != nil {
		return nil, err
	}
	if res.Killed {
		// Found keeps the count of embeddings already streamed — those
		// cannot be retracted from the sink.
		res.Embeddings, res.Found = nil, streamed
	}
	return res, nil
}

// runBudgeted is the one budget/kill wrapper: it runs a query body under the
// engine's per-query cap (when it has one), records the timing on res, and
// folds the outcome into the operational counters. A query that hits the cap
// is not an error — the deadline is engine policy, reported the way the
// paper's methodology records it: res.Killed set, Class Hard, Elapsed clamped
// to the cap; the caller trims the answer to what irrevocably surfaced.
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
	if e.bandit == nil || d == nil || !d.Solo || d.observed {
		return
	}
	d.observed = true
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

// runRace executes a full (or fixed single-attempt) race, observing the
// winner into the bandit when the engine learns.
func (e *Engine) runRace(ctx context.Context, q *Graph, attempts []Attempt, limit int, sink Sink, res *QueryResult) error {
	var (
		r   core.Result
		err error
	)
	e.counters.RaceAttempts.Add(int64(len(attempts)))
	if sink != nil {
		r, err = e.racer.RaceStream(ctx, q, limit, attempts, sink)
	} else {
		r, err = e.racer.Race(ctx, q, limit, attempts)
	}
	if err != nil {
		return err
	}
	res.Embeddings = r.Embeddings
	res.Found = r.Found
	res.Winner = r.Winner.Label()
	if len(attempts) == len(e.attempts) && e.bandit != nil && res.Policy != nil {
		// A full auto-policy race trains the bandit with the winner's
		// first-result latency (and clears any kill escalation).
		res.Policy.observed = true
		e.bandit.ObserveRaceWin(res.Policy.Class, r.WinnerIndex, r.Elapsed)
	}
	return nil
}

// soloFirst is the one solo→escalate step, shared by NFV predicted plans and
// auto-policy dataset queries: run the trusted arm alone under the solo
// budget and, when it overruns before committing output, fall back to the
// full race. solo reports the arm's own elapsed time; the bandit (when the
// query carries a policy decision) learns from either outcome. surfaced says
// whether the overrun solo already handed output to the caller: such a run
// is committed — a fallback would replay the stream from the start — so the
// overrun surfaces as the solo deadline error, a kill on a budgeted engine.
func (e *Engine) soloFirst(ctx context.Context, res *QueryResult, solo func(context.Context) (time.Duration, error), surfaced func() bool, race func(context.Context) error) error {
	soloCtx, cancel := context.WithTimeout(ctx, e.solo)
	elapsed, err := solo(soloCtx)
	cancel()
	d := res.Policy
	learns := e.bandit != nil && d != nil
	if err == nil {
		if learns {
			d.observed = true
			e.bandit.ObserveSolo(d.Class, d.Arm, elapsed)
		}
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err() // budget kill or caller cancel, not the solo budget
	}
	// The solo budget expired: evidence against the learned arm.
	if learns {
		d.observed = true
		e.bandit.ObserveKill(d.Class, d.Arm)
	}
	if surfaced() {
		return err
	}
	res.FellBack = true
	return race(ctx)
}

// runPredicted runs the bandit's pick alone under the solo budget, falling
// back to a full race when it overruns before emitting. A
// streamed run that already surfaced embeddings is committed: a mid-stream
// budget expiry surfaces as the solo context's error rather than silently
// restarting the query. surfaced reports whether any embedding has reached
// the caller's sink.
func (e *Engine) runPredicted(ctx context.Context, p *Plan, limit int, sink Sink, res *QueryResult, surfaced func() bool) error {
	att := e.attempts[p.Predicted : p.Predicted+1]
	solo := func(soloCtx context.Context) (time.Duration, error) {
		e.counters.RaceAttempts.Add(1)
		var (
			r   core.Result
			err error
		)
		if sink != nil {
			r, err = e.racer.RaceStream(soloCtx, p.Query, limit, att, sink)
		} else {
			r, err = e.racer.Race(soloCtx, p.Query, limit, att)
		}
		if err != nil {
			return 0, err
		}
		res.Embeddings = r.Embeddings
		res.Found = r.Found
		res.Winner = att[0].Label()
		e.counters.PredictedSolo.Add(1)
		return r.Elapsed, nil
	}
	return e.soloFirst(ctx, res, solo, surfaced, func(ctx context.Context) error {
		return e.runRace(ctx, p.Query, e.attempts, limit, sink, res)
	})
}

// answer is the one dataset-query execution, behind every FTV entry point:
// pin the current epoch's state, run the arms the policy names — the fixed
// index, the learned solo arm (escalating to the race if it overruns), or
// the whole portfolio — through the state's racer, all under the budget.
// emit receives the ascending graph IDs as they settle; nil collects them
// into the result's GraphIDs instead. A collected answer is a buffer nobody
// has seen yet, so an overrun solo can always start over and a kill
// surfaces an empty answer, while a streaming run is committed by its first
// emission and a kill keeps Found at the number of IDs that reached emit.
func (e *Engine) answer(ctx context.Context, q *Graph, d *PolicyDecision, emit func(graphID int) bool) (*QueryResult, error) {
	// Pin the current epoch's state for the whole execution: a concurrent
	// mutation installs its successor without disturbing this query, and
	// the result records which epoch answered.
	st := e.acquireState()
	if st == nil {
		return nil, errors.New("psi: engine closed")
	}
	defer st.unref()
	e.counters.Queries.Add(1)
	res := &QueryResult{Kind: PlanFTV, Policy: d, Epoch: st.epoch}
	collecting := emit == nil
	if collecting {
		emit = func(id int) bool {
			res.GraphIDs = append(res.GraphIDs, id)
			return true
		}
	} else {
		e.counters.Streamed.Add(1)
	}
	stream := func(ctx context.Context, arms []int) (core.IndexRaceResult, error) {
		r, err := st.racer.Stream(ctx, q, arms, func(id int) bool {
			res.Found++
			if !collecting {
				e.tallyShardID(id)
			}
			return emit(id)
		})
		if err == nil {
			res.Winner, res.IndexAttempts = r.Winner, r.Attempts
		}
		return r, err
	}
	race := func(ctx context.Context) error {
		var arms []int // the whole portfolio
		if e.ixPolicy == IndexFixed {
			arms = []int{0}
		}
		r, err := stream(ctx, arms)
		if err == nil && d != nil {
			d.observed = true
			e.bandit.ObserveRaceWin(d.Class, r.WinnerIndex, r.Attempts[r.WinnerIndex].Elapsed)
		}
		return err
	}
	run := race
	if d != nil && d.Solo {
		solo := func(ctx context.Context) (time.Duration, error) {
			r, err := stream(ctx, []int{d.Arm})
			return r.Elapsed, err
		}
		surfaced := func() bool { return !collecting && res.Found > 0 }
		run = func(ctx context.Context) error {
			return e.soloFirst(ctx, res, solo, surfaced, func(ctx context.Context) error {
				res.GraphIDs, res.Found = nil, 0 // whatever a collecting solo had buffered
				e.counters.IndexAttempts.Add(1)  // the abandoned solo still ran
				return race(ctx)
			})
		}
	}
	if err := e.runBudgeted(ctx, res, run); err != nil {
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
	return e.answer(ctx, q, e.decide(q), emit)
}
