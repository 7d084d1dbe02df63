// Package core implements the Ψ-framework (Parallel Subgraph Isomorphism
// framework), the paper's primary contribution (§8). Instead of inventing a
// new sub-iso algorithm, the framework launches several attempts at the same
// query in parallel — each attempt pairing an existing algorithm with an
// isomorphic query rewriting — and adopts the answer of the first attempt to
// finish, cancelling the rest. Stragglers for one (algorithm, rewriting)
// combination are typically fast for another, so the race removes the heavy
// right tail of query-time distributions.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/rewrite"
)

// Attempt is one contender in a race: an algorithm paired with a query
// rewriting. Seed is used only by rewrite.Random.
type Attempt struct {
	Matcher   match.Matcher
	Rewriting rewrite.Kind
	Seed      int64
}

// Label names the attempt as in the paper's figures, e.g. "GQL-ILF".
func (a Attempt) Label() string {
	return fmt.Sprintf("%s-%s", a.Matcher.Name(), a.Rewriting)
}

// Result is the outcome of a race.
type Result struct {
	// Embeddings are the winner's embeddings of the caller's query, in its
	// own vertex numbering: every attempt searches that query. Nil for
	// RaceStream, whose embeddings go to the caller's sink instead.
	Embeddings []match.Embedding
	// Found is the number of embeddings the winner produced — equal to
	// len(Embeddings) for Race, and the count streamed into the sink for
	// RaceStream.
	Found int
	// WinnerIndex is the winner's position in the attempts slice.
	WinnerIndex int
	// Elapsed is the wall-clock time from race start to the win.
	Elapsed time.Duration
}

// Racer runs Ψ-framework races. The zero value works for rewritings that
// need no label statistics (Orig, IND, DND, Random); construct with NewRacer
// to enable ILF-style rewritings.
type Racer struct {
	// Frequencies are the stored-graph (or dataset-wide) label
	// frequencies consulted by ILF, ILF+IND and ILF+DND.
	Frequencies rewrite.Frequencies
	// Pool is the execution layer attempts are submitted through; nil
	// selects the shared default pool (sized by the CPU count). Attempts
	// reuse idle pool workers but are never queued behind a saturated
	// pool — every attempt of a race runs concurrently, as the race
	// semantics require.
	Pool *exec.Pool
}

// NewRacer returns a Racer with label frequencies taken from the stored
// graph g.
func NewRacer(g *graph.Graph) *Racer {
	return &Racer{Frequencies: rewrite.FrequenciesOf(g)}
}

// Race launches every attempt concurrently against query q — through the
// racer's execution pool, reusing idle workers instead of always spawning —
// and returns the first completed answer (which may legitimately be "no
// embeddings"), cancelling the other attempts. All attempts must be bound
// to stored graphs with identical answer semantics (normally: the same
// stored graph), otherwise the race is not meaningful. A panicking matcher
// is isolated and reported as that attempt's error rather than crashing the
// process.
//
// If every attempt fails, Race returns the parent context's error when the
// parent was cancelled, or the joined attempt errors otherwise.
func (r *Racer) Race(ctx context.Context, q *graph.Graph, limit int, attempts []Attempt) (Result, error) {
	if len(attempts) == 0 {
		return Result{}, errors.New("psi: no attempts to race")
	}
	start := time.Now()
	winner, embs, err := firstDone(ctx, r.Pool, len(attempts), matchRace{r, q, limit, attempts})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Embeddings:  embs,
		Found:       len(embs),
		WinnerIndex: winner,
		Elapsed:     time.Since(start),
	}, nil
}

// matchRace is Race's contender: attempt i collects what it finds.
type matchRace struct {
	r        *Racer
	q        *graph.Graph
	limit    int
	attempts []Attempt
}

func (m matchRace) label(i int) string { return m.attempts[i].Label() }

func (m matchRace) run(ctx context.Context, i int) (embs []match.Embedding, err error) {
	err = m.r.search(ctx, m.attempts[i], m.q, m.limit, match.SinkFunc(func(e match.Embedding) bool {
		embs = append(embs, e)
		return true
	}))
	return embs, err
}

// search is one attempt, the body Race and RaceStream share: up to limit
// embeddings of q, in q's own numbering, go to sink. A matcher that plans
// over the join searches q under the attempt's rewriting as a vertex
// ranking; any other matcher runs on q as given.
func (r *Racer) search(ctx context.Context, a Attempt, q *graph.Graph, limit int, sink match.Sink) error {
	p, ok := a.Matcher.(match.Planner)
	if !ok {
		return match.Stream(ctx, a.Matcher, q, limit, sink)
	}
	var rank graph.Permutation
	if a.Rewriting != rewrite.Orig {
		rank = rewrite.Compute(q, r.Frequencies, a.Rewriting, a.Seed)
	}
	return match.Ranked(ctx, p, q, rank, nil, limit, sink)
}

// contender is one race's job: run is contender i's whole attempt under the
// race's context, label names it in a joined error. firstDone takes it as a
// type parameter, not as closures, so each contender's task captures it by
// value: a closure the tasks shared would be one allocation per race more
// than the two loops firstDone replaced made.
type contender[T any] interface {
	run(ctx context.Context, i int) (T, error)
	label(i int) string
}

// firstDone is the adopt-first-finisher race, the one loop behind Racer.Race
// (matcher attempts, T = embeddings) and RaceInstances (one candidate's
// rewriting instances, T = bool). It starts n contenders through pool (nil:
// the shared default pool; Pool.Go, so all n run concurrently) under one
// shared cancellable context; the first to return without an error wins, the
// rest are cancelled and exit into the buffered channel on their own, so
// nobody waits for a loser. If every contender fails, the caller's context
// error is returned when the caller was cancelled, otherwise the contenders'
// errors joined, each prefixed with its label. A panicking contender is
// isolated and reported as that contender's error.
//
// It is not a collector over streamRace because adopting at the finish needs
// none of what adopting at the first emission does — no per-contender
// context, no claim — and RaceInstances runs once per candidate: when the
// merge was sized, a race of two over a stub index measured
// 3.25 µs / 8 allocs / 518 B on a loop like this one and 6.2 µs / 26 allocs /
// 1 513 B expressed on streamRace, which at ftv_selective's 25.6 candidates
// a query is about +77 µs on 0.59 ms of CPU and +25 KB on 124 KB allocated.
// BenchmarkRaceInstances holds this loop's side of that comparison.
func firstDone[T any, C contender[T]](ctx context.Context, pool *exec.Pool, n int, c C) (winner int, val T, err error) {
	if pool == nil {
		pool = exec.Default()
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// In this order and with a 32-bit idx a buffered slot is 24 bytes when T
	// is bool: the channel is half of what a per-candidate race allocates.
	type outcome struct {
		err error
		idx int32
		val T
	}
	ch := make(chan outcome, n)
	for i := range n {
		pool.Go(func() {
			o := outcome{idx: int32(i)}
			defer func() {
				if rec := recover(); rec != nil {
					o.err = fmt.Errorf("psi: attempt panic: %v", rec)
				}
				ch <- o
			}()
			o.val, o.err = c.run(raceCtx, i)
		})
	}
	var errs []error
	for done := 0; done < n; done++ {
		o := <-ch
		if o.err == nil {
			return int(o.idx), o.val, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", c.label(int(o.idx)), o.err))
	}
	if err := ctx.Err(); err != nil {
		return -1, val, err
	}
	return -1, val, errors.Join(errs...)
}

// RaceStream is the streaming form of Race: the winner's embeddings flow
// into sink as they are found, in q's own numbering, instead of being
// materialized in the Result. Where Race adopts the first
// attempt to *finish*, RaceStream adopts the first attempt to *emit*: the
// first embedding anyone finds claims the output stream for its attempt and
// cancels every other attempt immediately. For decision queries (limit <= 0)
// the race therefore ends at the very first embedding discovered by any
// contender — first-result latency is the fastest attempt's time-to-first,
// not its time-to-completion. An attempt that completes with no embeddings
// (and no error) before anyone has emitted wins an empty race, exactly as
// in Race. Returning false from the sink stops the adopted winner, ending
// the race successfully with the embeddings seen so far.
//
// The returned Result carries the winner's identity and Found (how many
// embeddings reached the sink); Result.Embeddings stays nil.
func (r *Racer) RaceStream(ctx context.Context, q *graph.Graph, limit int, attempts []Attempt, sink match.Sink) (Result, error) {
	if len(attempts) == 0 {
		return Result{}, errors.New("psi: no attempts to race")
	}
	if sink == nil {
		return Result{}, errors.New("psi: RaceStream requires a sink")
	}
	pool := r.Pool
	if pool == nil {
		pool = exec.Default()
	}
	start := time.Now()
	found := 0 // only the adopted attempt ever gets past claim
	label := func(i int) string { return attempts[i].Label() }
	// The race is decided the moment the adopted attempt finishes; cancelled
	// losers exit on their own, so nobody waits for them.
	winner, err := streamRace(ctx, len(attempts), label, pool.Go,
		func(actx context.Context, i int, claim func() bool) error {
			return r.search(actx, attempts[i], q, limit, match.SinkFunc(func(e match.Embedding) bool {
				if !claim() {
					return false
				}
				found++
				return sink.Emit(e)
			}))
		})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Found:       found,
		WinnerIndex: winner,
		Elapsed:     time.Since(start),
	}, nil
}

// streamRace is the adopt-first-emitter race behind Racer.RaceStream. It
// starts n contenders through spawn, each with its own
// cancellable context. A contender calls claim before surfacing each result:
// the first claim of the race adopts that contender — it owns the output from
// then on and every other contender is cancelled — and claim returns false to
// a contender that lost, which must then stop emitting. A contender that
// completes cleanly without ever emitting, before anyone was adopted, wins an
// empty race: all contenders compute the same answer, so it is empty. If the
// adopted contender fails mid-stream the race fails rather than switching
// winners (partial output may have reached the caller); if nobody wins, the
// caller's context error or the joined contender errors are returned, each
// prefixed with label(i). A panicking contender is isolated and reported as
// that contender's error.
//
// It returns as soon as the race is decided; the losers exit on their own.
//
// It is not firstDone because the winner is known before it has finished: the
// adopted contender must keep running while every other one is cancelled,
// which takes a context per contender and the claim that firstDone's single
// shared context and "first value on the channel" cannot express.
func streamRace(ctx context.Context, n int, label func(i int) string, spawn func(task func()),
	run func(ctx context.Context, i int, claim func() bool) error) (winner int, err error) {
	raceCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	// Per-contender contexts so adoption can kill every contender except the
	// adopted one while it keeps streaming.
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(raceCtx)
	}
	var adopted atomic.Int32
	adopted.Store(-1)
	// claim reports whether contender i owns the output, adopting it if
	// nobody does yet.
	claim := func(i int) bool {
		if adopted.Load() == int32(i) {
			return true
		}
		if !adopted.CompareAndSwap(-1, int32(i)) {
			return false
		}
		for j, c := range cancels {
			if j != i {
				c()
			}
		}
		return true
	}
	type outcome struct {
		idx  int
		lost bool // stopped because another contender owns the stream
		err  error
	}
	ch := make(chan outcome, n)
	for i := 0; i < n; i++ {
		spawn(func() {
			o := outcome{idx: i}
			defer func() {
				if rec := recover(); rec != nil {
					o.err = fmt.Errorf("psi: attempt panic: %v", rec)
				}
				ch <- o
			}()
			err := run(ctxs[i], i, func() bool {
				if !claim(i) {
					o.lost = true
				}
				return !o.lost
			})
			if !o.lost {
				o.err = err
			}
		})
	}
	var errs []error
	for done := 0; done < n; done++ {
		o := <-ch
		cutOff := ctxs[o.idx].Err() != nil && ctx.Err() == nil
		switch {
		case o.lost:
			// Raced the winner to its first emission and lost.
		case o.err != nil && int(adopted.Load()) == o.idx:
			// The adopted contender died mid-stream (the caller's
			// cancellation, or a failure of its own).
			return -1, fmt.Errorf("%s: %w", label(o.idx), o.err)
		case o.err != nil && cutOff:
		case o.err != nil:
			errs = append(errs, fmt.Errorf("%s: %w", label(o.idx), o.err))
		case claim(o.idx):
			// The adopted winner ran to completion (or the caller's sink
			// stopped it), or this contender completed empty before anyone
			// emitted: the race is decided.
			return o.idx, nil
		}
	}
	if ctx.Err() != nil {
		return -1, ctx.Err()
	}
	return -1, errors.Join(errs...)
}

// Portfolio builds the cross product of matchers and rewritings, the
// general form of the paper's Ψ variants: Ψ([GQL/SPA]-[Or/DND]) is
// Portfolio([gql, spa], [Orig, DND]) with 4 attempts.
func Portfolio(matchers []match.Matcher, kinds []rewrite.Kind) []Attempt {
	out := make([]Attempt, 0, len(matchers)*len(kinds))
	for _, k := range kinds {
		for _, m := range matchers {
			out = append(out, Attempt{Matcher: m, Rewriting: k})
		}
	}
	return out
}
