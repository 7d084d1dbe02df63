package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
)

// FTVRacer applies the Ψ-framework to a filter-then-verify method (§8: "In
// the FTV methods we leave intact the index construction and the filtering
// stages... In the verification stage, for every graph in the candidate
// set, we instantiate a number of threads equal to the number of the
// isomorphic-query rewritings we utilize").
type FTVRacer struct {
	// Index is the wrapped FTV method (Grapes or GGSX).
	Index ftv.Index
	// Rewritings are the raced isomorphic instances per candidate graph;
	// include rewrite.Orig to race the original query too (the paper's
	// Ψ(Or/...) variants).
	Rewritings []rewrite.Kind
	// Frequencies are dataset-wide label frequencies for ILF rewritings;
	// NewFTVRacer fills them in.
	Frequencies rewrite.Frequencies
	// Pool is the execution layer the rewriting race submits its attempts
	// through; nil selects the shared default pool.
	Pool *exec.Pool
}

// NewFTVRacer wraps an FTV index with raced rewritings.
func NewFTVRacer(x ftv.Index, kinds []rewrite.Kind) *FTVRacer {
	return &FTVRacer{
		Index:       x,
		Rewritings:  kinds,
		Frequencies: rewrite.FrequenciesOfDataset(x.Dataset()),
	}
}

// Name identifies the configuration, e.g. "Ψ(Grapes/1: ILF/IND/DND)".
func (f *FTVRacer) Name() string {
	s := "Ψ(" + f.Index.Name() + ":"
	for i, k := range f.Rewritings {
		if i > 0 {
			s += "/"
		} else {
			s += " "
		}
		s += k.String()
	}
	return s + ")"
}

// FTVResult reports one raced verification.
type FTVResult struct {
	Contained bool
	// Winner is the rewriting whose thread finished first.
	Winner rewrite.Kind
	// Elapsed is the wall-clock verification time.
	Elapsed time.Duration
}

// Verify races one verification per rewriting for a single candidate graph
// and returns the first finisher's answer. Because every rewriting yields a
// query isomorphic to the original, all threads compute the same boolean.
// Attempts go through the racer's pool (guaranteed-concurrency submit), so
// idle workers are reused but the race never serializes.
func (f *FTVRacer) Verify(ctx context.Context, q *graph.Graph, graphID int) (FTVResult, error) {
	res, _, err := raceInstances(ctx, f.Pool, []ftv.Index{f.Index}, instances(q, f.Frequencies, f.Rewritings), graphID)
	return res, err
}

// StreamFTV is the one dataset-query pipeline, the paper's FTV design (§8):
// the filter runs once and the alternatives race in verification. xs are one
// table under distinct verifiers (index.Sharded.Using), so any of them
// filters alike: xs[0]'s scan streams candidates into verification
// (index.StreamVerified), and each candidate races every verifier of xs
// under every rewriting — the query is rewritten once per kind, under freqs,
// the label frequencies of the table's dataset — the first finisher deciding
// it and the rest cancelled. Verified IDs reach emit in ascending order; emit
// is called from verification goroutines, one call at a time, and returning
// false stops the stream with a nil error. wins[i] counts the candidates
// xs[i] decided. Verifications wait for the pool's workers (nil: the default
// pool), which paces the filter; a candidate's race reuses idle workers but
// never waits for one.
func StreamFTV(ctx context.Context, pool *exec.Pool, xs []index.Index, freqs rewrite.Frequencies, kinds []rewrite.Kind, q *graph.Graph, emit func(graphID int) bool) (wins []int, err error) {
	if len(xs) == 0 {
		return nil, errors.New("psi: StreamFTV needs at least one verifier")
	}
	qs := instances(q, freqs, kinds)
	vs := make([]ftv.Index, len(xs))
	for i, x := range xs {
		vs[i] = x
	}
	won := make([]atomic.Int64, len(xs))
	err = index.StreamVerified(ctx, pool,
		func(fctx context.Context, femit func(int) bool) error {
			return xs[0].FilterStream(fctx, q, femit)
		},
		emit,
		func(gctx context.Context, id int) (bool, error) {
			res, v, err := raceInstances(gctx, pool, vs, qs, id)
			if err != nil {
				return false, err
			}
			won[v].Add(1)
			return res.Contained, nil
		})
	if err != nil {
		return nil, err
	}
	wins = make([]int, len(xs))
	for i := range won {
		wins[i] = int(won[i].Load())
	}
	return wins, nil
}

// instance is the query under one rewriting.
type instance struct {
	kind rewrite.Kind
	q    *graph.Graph
}

// instances rewrites q once per kind. The result depends only on the query,
// the frequencies and the kind, so a pipeline run prepares the instances once
// and hands them to every candidate's race.
func instances(q *graph.Graph, freqs rewrite.Frequencies, kinds []rewrite.Kind) []instance {
	qs := make([]instance, len(kinds))
	for i, k := range kinds {
		qs[i].kind = k
		qs[i].q = q.MustPermute(rewrite.Compute(q, freqs, k, 0))
	}
	return qs
}

// raceInstances is the per-candidate race: one verification of dataset graph
// graphID per verifier of xs and prepared instance, first finisher wins, the
// rest are cancelled. It also reports the winner's position in xs. nil pool
// selects the shared default pool.
func raceInstances(ctx context.Context, pool *exec.Pool, xs []ftv.Index, qs []instance, graphID int) (FTVResult, int, error) {
	if len(qs) == 0 {
		return FTVResult{}, 0, errors.New("psi: FTVRacer needs at least one rewriting")
	}
	start := time.Now()
	winner, contained, err := firstDone(ctx, pool, len(xs)*len(qs), verifyRace{xs, qs, graphID})
	if err != nil {
		return FTVResult{}, 0, err
	}
	return FTVResult{Contained: contained, Winner: qs[winner%len(qs)].kind, Elapsed: time.Since(start)}, winner / len(qs), nil
}

// verifyRace is raceInstances' contender: contender i is verifier i / len(qs)
// on instance i % len(qs).
type verifyRace struct {
	xs      []ftv.Index
	qs      []instance
	graphID int
}

func (v verifyRace) label(i int) string {
	return v.xs[i/len(v.qs)].Name() + "-" + v.qs[i%len(v.qs)].kind.String()
}

func (v verifyRace) run(ctx context.Context, i int) (bool, error) {
	return v.xs[i/len(v.qs)].Verify(ctx, v.qs[i%len(v.qs)].q, v.graphID)
}
