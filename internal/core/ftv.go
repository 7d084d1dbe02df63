package core

import (
	"context"
	"errors"
	"fmt"
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
	return raceInstances(ctx, f.Pool, f.Index, f.Rewritings, instances(q, f.Frequencies, f.Rewritings), graphID)
}

// instances rewrites q once per kind. The result depends only on the query,
// the frequencies and the kind, so a pipeline run prepares the instances once
// and hands them to every candidate's race.
func instances(q *graph.Graph, freqs rewrite.Frequencies, kinds []rewrite.Kind) []*graph.Graph {
	qs := make([]*graph.Graph, len(kinds))
	for i, k := range kinds {
		qs[i], _ = rewrite.Apply(q, freqs, k, 0)
	}
	return qs
}

// raceInstances is the per-candidate rewriting race: one verification of
// dataset graph graphID per prepared instance (qs[i] is the query under
// kinds[i]), first finisher wins, the rest are cancelled. nil pool selects
// the shared default pool.
func raceInstances(ctx context.Context, pool *exec.Pool, x ftv.Index, kinds []rewrite.Kind, qs []*graph.Graph, graphID int) (FTVResult, error) {
	if len(kinds) == 0 {
		return FTVResult{}, errors.New("psi: FTVRacer needs at least one rewriting")
	}
	if pool == nil {
		pool = exec.Default()
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		kind      rewrite.Kind
		contained bool
		err       error
	}
	ch := make(chan outcome, len(kinds))
	start := time.Now()
	for i, k := range kinds {
		pool.Go(func() {
			o := outcome{kind: k}
			defer func() {
				if rec := recover(); rec != nil {
					o.contained, o.err = false, fmt.Errorf("psi: verification panic: %v", rec)
				}
				ch <- o
			}()
			o.contained, o.err = x.Verify(raceCtx, qs[i], graphID)
		})
	}
	var errs []error
	for n := 0; n < len(kinds); n++ {
		o := <-ch
		if o.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", o.kind, o.err))
			continue
		}
		cancel()
		return FTVResult{Contained: o.contained, Winner: o.kind, Elapsed: time.Since(start)}, nil
	}
	if err := ctx.Err(); err != nil {
		return FTVResult{}, err
	}
	return FTVResult{}, errors.Join(errs...)
}
