package core

import (
	"context"
	"errors"
	"sync/atomic"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
)

// StreamFTV is the one dataset-query pipeline, the paper's FTV design (§8):
// the filter runs once and the rewritings race in verification. x's scan
// streams candidates into verification (index.StreamVerified), and each
// candidate races v over x's table under every rewriting (RaceInstances) —
// the query is rewritten once per kind, under freqs, the label frequencies
// of x's dataset — the first finisher deciding it and the rest cancelled.
// Verified IDs reach emit in ascending order; emit is called from
// verification goroutines, one call at a time, and returning false stops the
// stream with a nil error. wins[i] counts the candidates kinds[i] decided.
// Verifications wait for the pool's workers (nil: the default pool), which
// paces the filter; a candidate's race reuses idle workers but never waits
// for one.
func StreamFTV(ctx context.Context, pool *exec.Pool, x *index.Sharded, v index.Verifier, freqs rewrite.Frequencies, kinds []rewrite.Kind, q *graph.Graph, emit func(graphID int) bool) (wins []int, err error) {
	if len(kinds) == 0 {
		return nil, errors.New("psi: StreamFTV needs at least one rewriting")
	}
	qs := Instances(q, freqs, kinds)
	won := make([]atomic.Int64, len(qs))
	err = index.StreamVerified(ctx, pool,
		func(fctx context.Context, femit func(int) bool) error {
			return x.FilterStream(fctx, q, femit)
		},
		emit,
		func(gctx context.Context, id int) (bool, error) {
			contained, arm, err := RaceInstances(gctx, pool, x, v, qs, id)
			if err != nil {
				return false, err
			}
			won[arm].Add(1)
			return contained, nil
		})
	if err != nil {
		return nil, err
	}
	wins = make([]int, len(qs))
	for i := range won {
		wins[i] = int(won[i].Load())
	}
	return wins, nil
}

// Instance is the query under one rewriting.
type Instance struct {
	kind rewrite.Kind
	q    *graph.Graph
}

// Instances rewrites q once per kind, under freqs (the label frequencies the
// ILF rewritings read). The result depends only on the query, the frequencies
// and the kind, so a query prepares its instances once and hands them to
// every candidate's race.
func Instances(q *graph.Graph, freqs rewrite.Frequencies, kinds []rewrite.Kind) []Instance {
	qs := make([]Instance, len(kinds))
	for i, k := range kinds {
		qs[i].kind = k
		qs[i].q = q.MustPermute(rewrite.Compute(q, freqs, k, 0))
	}
	return qs
}

// RaceInstances is the per-candidate race, the paper's Ψ over an FTV method
// (§8: "for every graph in the candidate set, we instantiate a number of
// threads equal to the number of the isomorphic-query rewritings"): one
// verification of x's dataset graph graphID by v per prepared instance,
// first finisher wins, the rest are cancelled. Every instance is isomorphic
// to the query, so every contender computes the same boolean. It also
// reports the winner's position in qs. Attempts go through pool (nil: the
// shared default pool) with guaranteed concurrency, so idle workers are
// reused but the race never serializes.
func RaceInstances(ctx context.Context, pool *exec.Pool, x *index.Sharded, v index.Verifier, qs []Instance, graphID int) (contained bool, arm int, err error) {
	if len(qs) == 0 {
		return false, 0, errors.New("psi: RaceInstances needs at least one rewriting")
	}
	winner, contained, err := firstDone(ctx, pool, len(qs), verifyRace{x, v, qs, graphID})
	if err != nil {
		return false, 0, err
	}
	return contained, winner, nil
}

// verifyRace is RaceInstances' contender: contender i is v on instance i.
type verifyRace struct {
	x       *index.Sharded
	v       index.Verifier
	qs      []Instance
	graphID int
}

func (r verifyRace) label(i int) string {
	return r.v.Name() + "-" + r.qs[i].kind.String()
}

func (r verifyRace) run(ctx context.Context, i int) (bool, error) {
	return r.x.VerifyWith(ctx, r.v, r.qs[i].q, r.graphID)
}
