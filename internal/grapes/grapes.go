// Package grapes implements the Grapes indexed subgraph-query method
// (Giugno et al., PLoS One 2013) as described in §3.1.1 of the paper:
// simple paths up to a maximum length are extracted in a DFS manner from
// every dataset graph and indexed in a trie together with location
// information (which vertices each path touches). At query time the
// query's maximal paths prune the dataset by presence and frequency; the
// surviving graphs' location info yields the relevant connected components,
// each of which is verified with VF2.
//
// Grapes is a multi-threaded design: both index construction (across
// dataset graphs) and verification (across extracted components) use a
// worker pool of configurable size — "Grapes/1" and "Grapes/4" in the
// paper's figures are instances of this index with 1 and 4 workers.
//
// The index implements the unified filtering-index contract of
// internal/index: it is folded by the shared build pipeline from the path
// features (with locations) that pipeline extracts once for every kind
// (deterministic for every pool size, cancellable through a context),
// filtering goes through the shared presence/frequency pruning, and
// FilterStream emits candidates incrementally so verification can begin
// before filtering finishes.
package grapes

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/vf2"
)

// Kind is the registered index kind.
const Kind = "grapes"

func init() {
	index.Register(Kind, func(ds []*graph.Graph, ex index.Extraction, opts index.Options) index.Index {
		return fold(ds, ex, Options{MaxPathLen: opts.MaxPathLen, Workers: opts.Workers, Pool: opts.Pool})
	}, true)
}

// Options configures index construction and verification.
type Options struct {
	// MaxPathLen is the maximum path length (in edges) to index;
	// defaults to ftv.DefaultMaxPathLen (4), the paper's setting.
	MaxPathLen int
	// Workers is the degree of parallelism for per-query component
	// verification; defaults to 1 (Grapes/1). Workers > 1 gives the index
	// a dedicated verification pool of that size (the paper's Grapes/4),
	// released by Close.
	Workers int
	// Pool is the execution pool the build's feature extraction fans out
	// on; nil selects the shared default pool. The built index is
	// identical for every pool size.
	Pool *exec.Pool
}

func (o Options) withDefaults() Options {
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = ftv.DefaultMaxPathLen
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Index is a built Grapes index over a dataset. Safe for concurrent use.
type Index struct {
	ds    []*graph.Graph
	opts  Options
	trie  *index.Trie // path trie: postings with location sets
	vpool *exec.Pool  // dedicated verification pool when Workers > 1
	stats index.Stats
}

// Build constructs the index; see BuildContext for the cancellable form.
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
// dataset's features are extracted, with locations, across the pool's
// workers and folded into the trie in graph-ID order, so the built index is
// byte-identical regardless of the pool's worker count. Cancelling ctx
// aborts the build — including mid-graph on dense inputs — and returns the
// context's error.
func BuildContext(ctx context.Context, ds []*graph.Graph, opts Options) (*Index, error) {
	x, err := index.Build(ctx, Kind, ds, index.Options{MaxPathLen: opts.MaxPathLen, Workers: opts.Workers, Pool: opts.Pool})
	if err != nil {
		return nil, err
	}
	return x.(*Index), nil
}

// fold is the registered index.BuildFunc.
func fold(ds []*graph.Graph, ex index.Extraction, opts Options) *Index {
	start := time.Now()
	x := newIndex(ds, opts.withDefaults(), index.FoldTrie(ex.Features, true))
	x.stats.BuildTime = ex.Time + time.Since(start)
	return x
}

// newIndex wraps a built trie with the verification pool and statistics;
// the caller sets BuildTime.
func newIndex(ds []*graph.Graph, opts Options, trie *index.Trie) *Index {
	x := &Index{ds: ds, opts: opts, trie: trie}
	if opts.Workers > 1 {
		x.vpool = exec.New(opts.Workers)
	}
	x.stats = index.Stats{
		Name:         x.Name(),
		Kind:         Kind,
		Graphs:       len(ds),
		MaxPathLen:   opts.MaxPathLen,
		Features:     trie.Features(),
		Nodes:        trie.Nodes(),
		BuildWorkers: index.PoolWorkers(opts.Pool),
	}
	return x
}

// Close releases the dedicated verification pool of a Workers>1 index.
// Queries in flight degrade gracefully to transient goroutines.
func (x *Index) Close() {
	if x.vpool != nil {
		x.vpool.Close()
	}
}

// Name implements ftv.Index: "Grapes/<workers>".
func (x *Index) Name() string { return fmt.Sprintf("Grapes/%d", x.opts.Workers) }

// Dataset implements ftv.Index.
func (x *Index) Dataset() []*graph.Graph { return x.ds }

// MaxPathLen returns the indexed path length.
func (x *Index) MaxPathLen() int { return x.opts.MaxPathLen }

// TrieNodes reports the size of the underlying trie (diagnostics).
func (x *Index) TrieNodes() int { return x.trie.Nodes() }

// Stats implements index.Index.
func (x *Index) Stats() index.Stats { return x.stats }

// lookup adapts the trie to the shared filter plumbing.
func (x *Index) lookup(labels []graph.Label) (index.Postings, bool) {
	posts, _ := x.trie.Lookup(labels)
	return posts, posts != nil
}

// Filter implements ftv.Index: a graph survives iff it contains every
// maximal path of the query at least as often as the query does.
func (x *Index) Filter(q *graph.Graph) []int {
	return index.FilterByFeatures(len(x.ds), ftv.QueryFeatures(q, x.opts.MaxPathLen), x.lookup)
}

// FilterStream implements index.Index: surviving graph IDs are emitted
// incrementally in ascending order.
func (x *Index) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	return index.StreamByFeatures(ctx, len(x.ds), ftv.QueryFeatures(q, x.opts.MaxPathLen), x.lookup, emit)
}

// CandidateVertices returns the union of the location sets of the query's
// maximal paths within dataset graph graphID — the vertices any embedding
// of q in that graph must lie inside, ascending. The boolean is false when
// the graph fails the filter (some path missing or too rare) or graphID is
// out of range.
func (x *Index) CandidateVertices(q *graph.Graph, graphID int) ([]int32, bool) {
	if graphID < 0 || graphID >= len(x.ds) {
		return nil, false
	}
	n := x.ds[graphID].N()
	feats := ftv.QueryFeatures(q, x.opts.MaxPathLen)
	if len(feats) == 0 {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all, true
	}
	if n == 0 {
		// Nothing to embed into — and a tombstoned slot's placeholder under
		// a restored mutable store, whose stale locations nothing bounds.
		return nil, false
	}
	// The location lists are sorted, unique and below n (built so, checked
	// by index.Restore); OR them into a reusable bitset and read the union
	// back in order.
	words := (n + 63) / 64
	buf := unionPool.Get().(*[]uint64)
	defer unionPool.Put(buf)
	set := append((*buf)[:0], make([]uint64, words)...)
	*buf = set
	for _, f := range feats {
		posts, locs := x.trie.Lookup(f.Labels)
		at, ok := posts.Find(graphID)
		if !ok || posts[at].Count < f.Count {
			return nil, false
		}
		for _, v := range locs[at] {
			set[v>>6] |= 1 << (v & 63)
		}
	}
	size := 0
	for _, w := range set {
		size += bits.OnesCount64(w)
	}
	out := make([]int32, 0, size)
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out, true
}

// unionPool recycles CandidateVertices' bitsets across verifications.
var unionPool = sync.Pool{New: func() any { return new([]uint64) }}

// Verify implements ftv.Index: it extracts the relevant connected components
// of the candidate graph (via location information) and runs VF2 on each,
// in parallel across opts.Workers workers, stopping at the first match —
// matching the paper's modification of Grapes to "return after the first
// match of the query graph".
func (x *Index) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if graphID < 0 || graphID >= len(x.ds) {
		return false, fmt.Errorf("grapes: graph ID %d out of range [0,%d)", graphID, len(x.ds))
	}
	g := x.ds[graphID]
	if q.N() == 0 {
		return true, nil
	}
	vertices, ok := x.CandidateVertices(q, graphID)
	if !ok {
		return false, nil
	}
	sub, _ := g.InducedSubgraph(g.Name()+"#cand", vertices)
	// Disconnected queries cannot be confined to a single component.
	if !q.IsConnected() {
		return containsQ(ctx, q, sub)
	}
	comps := sub.ConnectedComponents()
	// Components too small to host the query are skipped outright.
	var work []*graph.Graph
	for _, comp := range comps {
		if len(comp) < q.N() {
			continue
		}
		cg, _ := sub.InducedSubgraph("comp", comp)
		if cg.M() < q.M() {
			continue
		}
		work = append(work, cg)
	}
	if len(work) == 0 {
		return false, nil
	}
	if x.vpool == nil || len(work) == 1 {
		for _, cg := range work {
			found, err := containsQ(ctx, q, cg)
			if err != nil {
				return false, err
			}
			if found {
				return true, nil
			}
		}
		return false, nil
	}
	return x.verifyParallel(ctx, q, work)
}

// errComponentFound aborts the remaining component checks once any component
// hosts the query — a sentinel, not a failure.
var errComponentFound = errors.New("grapes: component match found")

// verifyParallel fans VF2 over components across the index's dedicated
// verification pool (hard-bounded at opts.Workers in flight); the first
// success cancels the remaining work. The dedicated pool keeps this nested
// fan-out off the shared pool, where a racer already running this
// verification inside a pool task would deadlock a single-worker pool.
func (x *Index) verifyParallel(ctx context.Context, q *graph.Graph, work []*graph.Graph) (bool, error) {
	var found atomic.Bool
	grp := x.vpool.NewGroup(ctx)
	for _, cg := range work {
		cg := cg
		grp.Go(func(gctx context.Context) error {
			ok, err := containsQ(gctx, q, cg)
			if err != nil {
				return err
			}
			if ok {
				found.Store(true)
				return errComponentFound
			}
			return nil
		})
	}
	err := grp.Wait()
	if found.Load() {
		return true, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return false, cerr
	}
	if err != nil {
		return false, err
	}
	return false, nil
}

func containsQ(ctx context.Context, q, g *graph.Graph) (bool, error) {
	embs, err := vf2.Match(ctx, q, g, 1)
	if err != nil {
		return false, err
	}
	return len(embs) > 0, nil
}
