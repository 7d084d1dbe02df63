package core

import (
	"context"
	"errors"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
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
	return raceInstances(ctx, f.Pool, f.Index, instances(q, f.Frequencies, f.Rewritings), graphID)
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

// raceInstances is the per-candidate rewriting race: one verification of
// dataset graph graphID per prepared instance, first finisher wins, the rest
// are cancelled. nil pool selects the shared default pool.
func raceInstances(ctx context.Context, pool *exec.Pool, x ftv.Index, qs []instance, graphID int) (FTVResult, error) {
	if len(qs) == 0 {
		return FTVResult{}, errors.New("psi: FTVRacer needs at least one rewriting")
	}
	start := time.Now()
	winner, contained, err := firstDone(ctx, pool, len(qs), verifyRace{x, qs, graphID})
	if err != nil {
		return FTVResult{}, err
	}
	return FTVResult{Contained: contained, Winner: qs[winner].kind, Elapsed: time.Since(start)}, nil
}

// verifyRace is raceInstances' contender: instance i verifies the candidate.
type verifyRace struct {
	x       ftv.Index
	qs      []instance
	graphID int
}

func (v verifyRace) label(i int) string { return v.qs[i].kind.String() }

func (v verifyRace) run(ctx context.Context, i int) (bool, error) {
	return v.x.Verify(ctx, v.qs[i].q, v.graphID)
}
