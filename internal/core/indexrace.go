package core

// IndexRacer extends the Ψ-framework's race-everything architecture to the
// filtering stage itself. Where FTVRacer races query rewritings *inside* one
// index's verification, IndexRacer races entire filtering indexes — the
// paper's "alternative algorithms" (FTV, Grapes, GGSX) — against each other
// per query: every configured index runs its full streaming filter→verify
// pipeline concurrently, the first index to emit a verified candidate adopts
// the output stream, and the losers are cancelled through their contexts.
// Because every index is exact (no false negatives, verified positives), all
// pipelines compute the same ascending answer, so adopting the first emitter
// is sound — just as adopting the first matcher to emit is sound in
// Racer.RaceStream.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
)

// IndexRacer races alternative filtering indexes per query; safe for
// concurrent queries. One racer serves every epoch of a dataset — each Stream
// call names the epoch's indexes and label frequencies — and owns nothing.
type IndexRacer struct {
	// Rewritings are raced per candidate inside every index attempt (§8.1).
	Rewritings []rewrite.Kind
	// Pool runs every arm's verifications (nil: the default pool). A single
	// arm opens a top-level group on it, whose blocking submit paces the
	// filter. Raced arms open nested groups (exec.Nest): each verification
	// goes to an idle worker or runs on its arm's own goroutine, never
	// waiting for a worker, so a straggling arm that occupies every worker
	// cannot starve the eventual winner.
	Pool *exec.Pool
}

// IndexAttempt reports one index's run inside a race.
type IndexAttempt struct {
	// Name is the index's instance name, e.g. "Grapes/1".
	Name string `json:"name"`
	// Winner marks the attempt whose output stream was adopted.
	Winner bool `json:"winner"`
	// Cancelled marks a loser that was cut off after the winner emitted.
	Cancelled bool `json:"cancelled"`
	// Emitted is how many verified graph IDs the attempt surfaced (only
	// the winner emits into the caller's stream).
	Emitted int `json:"emitted"`
	// Elapsed is the attempt's wall-clock time from race start until it
	// finished or was cancelled.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Err records a loser's non-cancellation failure, empty otherwise.
	Err string `json:"err,omitempty"`
}

// IndexRaceResult is the outcome of one index race.
type IndexRaceResult struct {
	// Winner is the adopted index's name.
	Winner string
	// WinnerIndex is the adopted index's position in the portfolio — not in
	// Attempts, which follows the arms of the call.
	WinnerIndex int
	// WinnerElapsed is the adopted arm's own time, its Attempts entry's
	// Elapsed.
	WinnerElapsed time.Duration
	// Attempts reports every raced arm's run, in the order the arms were
	// given (portfolio order for a full race).
	Attempts []IndexAttempt
	// Elapsed is the wall-clock time of the whole race.
	Elapsed time.Duration
}

// Stream is the one FTV query pipeline: it races the streaming filter→verify
// pipeline of every listed arm (positions in the portfolio xs; none means the
// whole portfolio) and streams the adopted winner's verified graph IDs into
// emit, in ascending order. The query is rewritten once per configured kind,
// under freqs — the label frequencies of the indexes' common dataset — and
// the prepared instances serve every candidate's rewriting race in every
// arm. The first arm to emit a verified candidate claims the output stream;
// the other arms are cancelled immediately through their contexts and drain
// before Stream returns, so a race leaves no goroutines behind (the
// per-attempt metrics in the result record the cancellations). An arm that
// completes with an empty answer before anyone emits wins the race — all
// indexes are exact, so the answer is empty. A single arm — a fixed index, or
// the one a learned policy trusts for the query's class — is a race of one:
// the same answer (every index is exact) at 1/n of the started work, whose
// verifications wait for the pool's workers, since with no contenders there
// is nothing to starve.
// emit is called from verification goroutines, one call at a time; the
// ordered stream waits for it, so it must not block on work that only
// proceeds after Stream returns. Returning false stops the winner and ends
// the race successfully with the IDs seen so far.
func (r *IndexRacer) Stream(ctx context.Context, xs []index.Index, freqs rewrite.Frequencies, q *graph.Graph, arms []int, emit func(graphID int) bool) (IndexRaceResult, error) {
	if len(xs) == 0 {
		return IndexRaceResult{}, errors.New("psi: IndexRacer needs at least one index")
	}
	if len(arms) == 0 {
		arms = make([]int, len(xs))
		for i := range arms {
			arms[i] = i
		}
	}
	for _, a := range arms {
		if a < 0 || a >= len(xs) {
			return IndexRaceResult{}, fmt.Errorf("psi: index arm %d out of range [0,%d)", a, len(xs))
		}
	}
	qs := instances(q, freqs, r.Rewritings)
	label := func(i int) string { return xs[arms[i]].Name() }
	// Dedicated goroutine per arm: arms block waiting on pool Groups, so
	// running them *on* pool workers could starve a small pool into deadlock.
	spawn := func(task func()) { go task() }
	start := time.Now()
	emitted := 0 // only the adopted arm ever gets past claim
	winner, lanes, err := streamRace(ctx, len(arms), label, spawn, true,
		func(actx context.Context, i int, claim func() bool) error {
			x := xs[arms[i]]
			if len(arms) > 1 {
				actx = exec.Nest(actx)
			}
			return index.StreamVerified(actx, r.Pool,
				func(fctx context.Context, femit func(int) bool) error {
					return x.FilterStream(fctx, q, femit)
				},
				func(id int) bool {
					if !claim() {
						return false
					}
					emitted++
					return emit(id)
				},
				func(gctx context.Context, id int) (bool, error) {
					res, err := raceInstances(gctx, r.Pool, x, qs, id)
					return res.Contained, err
				})
		})
	if err != nil {
		return IndexRaceResult{}, err
	}
	res := IndexRaceResult{
		WinnerIndex: arms[winner],
		Attempts:    make([]IndexAttempt, len(arms)),
		Elapsed:     time.Since(start),
	}
	for i, ln := range lanes {
		res.Attempts[i] = IndexAttempt{Name: label(i), Cancelled: ln.cancelled, Elapsed: ln.elapsed}
		if ln.err != nil {
			res.Attempts[i].Err = ln.err.Error()
		}
	}
	won := &res.Attempts[winner]
	won.Winner, won.Emitted = true, emitted
	res.Winner, res.WinnerElapsed = won.Name, won.Elapsed
	return res, nil
}
