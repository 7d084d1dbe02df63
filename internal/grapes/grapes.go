// Package grapes builds the Grapes configuration of the one filtering index
// (Giugno et al., PLoS One 2013, as described in §3.1.1 of the paper): the
// flat path table of internal/index with location sets — which vertices each
// indexed path touches — under the "grapes" name, whose verifier runs VF2
// within the connected components those sets leave in a candidate graph.
// The table and the verifier live in internal/index; this package names the
// configuration for callers that build it on its own, as the paper's
// figures do with "Grapes/1" and "Grapes/4".
package grapes

import (
	"context"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// Kind is Grapes' index name.
const Kind = index.KindGrapes

// Options configures index construction and verification.
type Options struct {
	// MaxPathLen is the maximum path length (in edges) to index;
	// defaults to ftv.DefaultMaxPathLen (4), the paper's setting.
	MaxPathLen int
	// Workers names the index (Grapes/W, as in the paper) and switches
	// component verification: 1 (the default) verifies a candidate's
	// components one after another, and above 1 fans them out on Pool,
	// as wide as its idle workers plus the verifying goroutine.
	Workers int
	// Pool is the execution pool the build's feature extraction and the
	// component fan-out run on; nil selects the shared default pool. The
	// built index is identical for every pool size.
	Pool *exec.Pool
}

// Build constructs the index; see BuildContext for the cancellable form.
func Build(ds []*graph.Graph, opts Options) *index.Path {
	x, err := BuildContext(context.Background(), ds, opts)
	if err != nil {
		// Unreachable: the background context never cancels and extraction
		// has no other failure mode.
		panic(err)
	}
	return x
}

// BuildContext constructs the index through the shared build pipeline: the
// dataset's features are extracted, with locations, across the pool's
// workers and folded into the table in graph-ID order, so the built index is
// byte-identical regardless of the pool's worker count. Cancelling ctx
// aborts the build — including mid-graph on dense inputs — and returns the
// context's error.
func BuildContext(ctx context.Context, ds []*graph.Graph, opts Options) (*index.Path, error) {
	tables, err := index.BuildTables(ctx, Kind, ds, 1, index.Options{MaxPathLen: opts.MaxPathLen, Workers: opts.Workers, Pool: opts.Pool})
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}
