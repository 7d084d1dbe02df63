// Package ggsx implements GGSX (Bonnici et al., IAPR PRIB 2010) as described
// in §3.1.1 of the paper: like Grapes it indexes simple paths up to a
// maximum length extracted in a DFS manner, but it organizes them in a
// suffix-tree structure, keeps no location information, and verifies
// candidates with VF2 against the whole stored graph — which is exactly why
// it shows more straggler queries than Grapes in the paper's Figure 1.
//
// Substitution note: the original's generalized suffix tree
// over maximal paths is represented here as a suffix trie storing every
// path suffix with correct occurrence counts; filtering power (presence +
// frequency pruning over all ≤maxLen paths) is identical, the difference is
// constant-factor storage layout.
//
// The index implements the unified filtering-index contract of
// internal/index: it is folded by the shared build pipeline from the path
// features that pipeline extracts once for every kind, in graph-ID order, so
// the built index is identical for every worker count; filtering goes
// through the shared presence/frequency pruning, and FilterStream emits
// candidates incrementally.
package ggsx

import (
	"context"
	"fmt"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/vf2"
)

// Kind is the registered index kind.
const Kind = "ggsx"

func init() {
	index.Register(Kind, func(ds []*graph.Graph, ex index.Extraction, opts index.Options) index.Index {
		return fold(ds, ex, Options{MaxPathLen: opts.MaxPathLen, Pool: opts.Pool})
	}, false)
}

// Options configures index construction.
type Options struct {
	// MaxPathLen is the maximum indexed path length in edges; defaults
	// to ftv.DefaultMaxPathLen (4), the paper's setting.
	MaxPathLen int
	// Pool is the execution pool the build's feature extraction fans out
	// on; nil selects the shared default pool. The built index is
	// identical for every pool size.
	Pool *exec.Pool
}

func (o Options) withDefaults() Options {
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = ftv.DefaultMaxPathLen
	}
	return o
}

// Index is a built GGSX index. Safe for concurrent use once built.
type Index struct {
	ds    []*graph.Graph
	opts  Options
	trie  *index.Trie // the suffix trie: counts at every path feature's node
	stats index.Stats
}

// Build constructs the suffix trie over all path features of the dataset;
// see BuildContext for the cancellable form.
func Build(ds []*graph.Graph, opts Options) *Index {
	x, err := BuildContext(context.Background(), ds, opts)
	if err != nil {
		// Unreachable: the background context never cancels and extraction
		// has no other failure mode.
		panic(err)
	}
	return x
}

// BuildContext constructs the index through the shared build pipeline: the
// dataset's features are extracted across the pool's workers and folded
// into the trie in graph-ID order — deterministic output for every worker
// count. Cancelling ctx aborts the build and returns the context's error.
func BuildContext(ctx context.Context, ds []*graph.Graph, opts Options) (*Index, error) {
	x, err := index.Build(ctx, Kind, ds, index.Options{MaxPathLen: opts.MaxPathLen, Pool: opts.Pool})
	if err != nil {
		return nil, err
	}
	return x.(*Index), nil
}

// fold is the registered index.BuildFunc.
func fold(ds []*graph.Graph, ex index.Extraction, opts Options) *Index {
	start := time.Now()
	x := newIndex(ds, opts.withDefaults(), index.FoldTrie(ds, ex.Features, false))
	x.stats.BuildTime = ex.Time + time.Since(start)
	return x
}

// newIndex wraps a built trie with its statistics; the caller sets
// BuildTime.
func newIndex(ds []*graph.Graph, opts Options, trie *index.Trie) *Index {
	x := &Index{ds: ds, opts: opts, trie: trie}
	postings, postingBytes := trie.Postings()
	x.stats = index.Stats{
		Name:         x.Name(),
		Kind:         Kind,
		Graphs:       len(ds),
		MaxPathLen:   opts.MaxPathLen,
		Features:     trie.Features(),
		Nodes:        trie.Nodes(),
		BuildWorkers: index.PoolWorkers(opts.Pool),
		Postings:     postings,
		PostingBytes: postingBytes,
	}
	return x
}

// Name implements ftv.Index.
func (x *Index) Name() string { return "GGSX" }

// Dataset implements ftv.Index.
func (x *Index) Dataset() []*graph.Graph { return x.ds }

// MaxPathLen returns the indexed path length.
func (x *Index) MaxPathLen() int { return x.opts.MaxPathLen }

// Stats implements index.Index.
func (x *Index) Stats() index.Stats { return x.stats }

// Close implements index.Index; GGSX owns no resources.
func (x *Index) Close() {}

// lookup adapts the trie to the shared filter plumbing.
func (x *Index) lookup(labels []graph.Label) index.PostingList {
	posts, _ := x.trie.Lookup(labels)
	return posts
}

// Filter implements ftv.Index using presence and frequency pruning over the
// query's maximal paths.
func (x *Index) Filter(q *graph.Graph) []int {
	return index.FilterByFeatures(len(x.ds), ftv.QueryFeatures(q, x.opts.MaxPathLen), x.lookup)
}

// FilterStream implements index.Index: surviving graph IDs are emitted
// incrementally in ascending order.
func (x *Index) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	return x.FilterFeatures(ctx, ftv.QueryFeatures(q, x.opts.MaxPathLen), emit)
}

// FilterFeatures implements index.FeatureFilter.
func (x *Index) FilterFeatures(ctx context.Context, feats []ftv.QueryFeature, emit func(graphID int) bool) error {
	return index.StreamByFeatures(ctx, len(x.ds), feats, x.lookup, emit)
}

// Verify implements ftv.Index: VF2 against the whole stored graph (GGSX
// keeps no location information to narrow the search).
func (x *Index) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if graphID < 0 || graphID >= len(x.ds) {
		return false, fmt.Errorf("ggsx: graph ID %d out of range [0,%d)", graphID, len(x.ds))
	}
	return vf2.New(x.ds[graphID]).Contains(ctx, q)
}
