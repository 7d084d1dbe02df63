// Package grapes implements the Grapes indexed subgraph-query method
// (Giugno et al., PLoS One 2013) as described in §3.1.1 of the paper:
// simple paths up to a maximum length are extracted in a DFS manner from
// every dataset graph and indexed in a trie together with location
// information (which vertices each path touches). At query time the
// query's maximal paths prune the dataset by presence and frequency; the
// surviving graphs' location info yields the relevant connected components,
// each of which is verified with VF2. A location set keeps one form from the
// path DFS to that verification (ftv.LocSets: a bitset row over its graph's
// vertices or a vertex-ID list, whichever is smaller), the components are
// found on the stored graph under the sets' union, and VF2 searches the stored
// graph restricted to a component — nothing is rebuilt per candidate.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/match"
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
	last  atomic.Pointer[queryPlan]
}

// queryPlan is what filtering and verification derive from the query alone.
// The pipeline filters a query once and then verifies it against one
// candidate graph after another, so the index keeps the last query's plan
// rather than extract its maximal paths again per candidate. Query graphs
// are immutable, which makes the pointer a sound key; concurrent queries
// overwrite each other's plan and merely recompute.
type queryPlan struct {
	q         *graph.Graph
	feats     []ftv.QueryFeature
	unbounded bool // q has a vertex of degree 0, which no location bounds
	connected bool
}

func (x *Index) plan(q *graph.Graph) *queryPlan {
	if p := x.last.Load(); p != nil && p.q == q {
		return p
	}
	p := &queryPlan{q: q, feats: ftv.QueryFeatures(q, x.opts.MaxPathLen), connected: q.IsConnected()}
	for v := 0; v < q.N() && !p.unbounded; v++ {
		p.unbounded = q.Degree(v) == 0
	}
	x.last.Store(p)
	return p
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
	x := newIndex(ds, opts.withDefaults(), index.FoldTrie(ds, ex.Features, true))
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
	locs := trie.LocSets()
	postings, postingBytes := trie.Postings()
	x.stats = index.Stats{
		Name:          x.Name(),
		Kind:          Kind,
		Graphs:        len(ds),
		MaxPathLen:    opts.MaxPathLen,
		Features:      trie.Features(),
		Nodes:         trie.Nodes(),
		BuildWorkers:  index.PoolWorkers(opts.Pool),
		Postings:      postings,
		PostingBytes:  postingBytes,
		LocationBytes: locs.Bytes(),
		LocationRows:  locs.Rows(),
		LocationLists: locs.Lists(),
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
func (x *Index) lookup(labels []graph.Label) index.PostingList {
	posts, _ := x.trie.Lookup(labels)
	return posts
}

// Filter implements ftv.Index: a graph survives iff it contains every
// maximal path of the query at least as often as the query does.
func (x *Index) Filter(q *graph.Graph) []int {
	return index.FilterByFeatures(len(x.ds), x.plan(q).feats, x.lookup)
}

// FilterStream implements index.Index: surviving graph IDs are emitted
// incrementally in ascending order.
func (x *Index) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	return x.FilterFeatures(ctx, x.plan(q).feats, emit)
}

// FilterFeatures implements index.FeatureFilter.
func (x *Index) FilterFeatures(ctx context.Context, feats []ftv.QueryFeature, emit func(graphID int) bool) error {
	return index.StreamByFeatures(ctx, len(x.ds), feats, x.lookup, emit)
}

// scratch is the per-verification working memory, recycled across calls:
// bitsets over the candidate graph's vertices and the component search's
// stack.
type scratch struct {
	mask  match.VertexSet // the union of the query features' location sets
	rest  match.VertexSet // components: the mask's vertices not yet in one
	stack []int32
	comps []uint64 // the components that could host the query, one row each
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// locate sets s.mask to the union of the location sets of the query's
// maximal paths within dataset graph graphID — the vertices any embedding of
// q in that graph must lie inside: one OR per word of a row, one bit per
// member of a list. Locations bound only query vertices that lie on a path,
// so a query with a vertex of degree 0 is bounded by nothing: its mask is the
// whole graph. False when the graph fails the filter (some path missing or
// too rare).
func (x *Index) locate(p *queryPlan, graphID int, s *scratch) bool {
	n := x.ds[graphID].N()
	s.mask = slices.Grow(s.mask[:0], ftv.Words(n))[:ftv.Words(n)]
	clear(s.mask)
	if n == 0 && len(p.feats) > 0 {
		// Nothing to embed into — and a tombstoned slot's placeholder under
		// a restored mutable store, whose stale locations nothing bounds.
		return false
	}
	sets := x.trie.LocSets()
	for _, f := range p.feats {
		posts, locs := x.trie.Lookup(f.Labels)
		c := posts.Cursor()
		at, count, ok := c.Seek(int32(graphID))
		if !ok || count < f.Count {
			return false
		}
		sets.Union(locs[at], s.mask)
	}
	if p.unbounded {
		for v := 0; v < n; v++ {
			s.mask.Add(int32(v))
		}
	}
	return true
}

// CandidateVertices reads locate's mask out in ascending order. The boolean
// is false when the graph fails the filter or graphID is out of range.
func (x *Index) CandidateVertices(q *graph.Graph, graphID int) ([]int32, bool) {
	if graphID < 0 || graphID >= len(x.ds) {
		return nil, false
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if !x.locate(x.plan(q), graphID, s) {
		return nil, false
	}
	out := make([]int32, 0, s.mask.Len())
	for v := s.mask.Next(0); v >= 0; v = s.mask.Next(v + 1) {
		out = append(out, v)
	}
	return out, true
}

// components splits s.mask into the connected components of the subgraph of
// g it induces — a search over g's adjacency that steps only onto mask
// vertices — and keeps, as rows of s.comps, those with at least minN vertices and minM
// edges. It returns how many it kept.
func (s *scratch) components(g *graph.Graph, minN, minM int) int {
	words := len(s.mask)
	s.rest = append(s.rest[:0], s.mask...)
	s.comps = s.comps[:0]
	kept := 0
	for start := s.rest.Next(0); start >= 0; start = s.rest.Next(start + 1) {
		s.comps = slices.Grow(s.comps, words)[:(kept+1)*words]
		comp := s.comp(kept)
		clear(comp)
		s.rest.Remove(start)
		comp.Add(start)
		s.stack = append(s.stack[:0], start)
		n, halfEdges := 0, 0
		for len(s.stack) > 0 {
			v := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			n++
			for _, w := range g.Neighbors(int(v)) {
				if !s.mask.Has(w) {
					continue
				}
				halfEdges++
				if s.rest.Has(w) {
					s.rest.Remove(w)
					comp.Add(w)
					s.stack = append(s.stack, w)
				}
			}
		}
		if n >= minN && halfEdges/2 >= minM {
			kept++
		} else {
			s.comps = s.comps[:kept*words]
		}
	}
	return kept
}

// comp returns the i'th row of s.comps.
func (s *scratch) comp(i int) match.VertexSet {
	words := len(s.mask)
	return s.comps[i*words : (i+1)*words]
}

// Verify implements ftv.Index: the query's location info in the candidate
// graph is split into connected components and each one big enough for q is
// checked by VF2 restricted to it on the stored graph — no subgraph is built
// — in parallel across opts.Workers workers, stopping at the first match,
// matching the paper's modification of Grapes to "return after the first
// match of the query graph".
func (x *Index) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if graphID < 0 || graphID >= len(x.ds) {
		return false, fmt.Errorf("grapes: graph ID %d out of range [0,%d)", graphID, len(x.ds))
	}
	if q.N() == 0 {
		return true, nil
	}
	m, p := vf2.New(x.ds[graphID]), x.plan(q)
	if p.unbounded {
		return m.Contains(ctx, q) // see locate
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if !x.locate(p, graphID, s) {
		return false, nil
	}
	// Disconnected queries cannot be confined to a single component.
	if !p.connected {
		return m.ContainsWithin(ctx, q, s.mask)
	}
	// Components too small to host the query are skipped outright.
	kept := s.components(x.ds[graphID], q.N(), q.M())
	if x.vpool == nil || kept <= 1 {
		for i := 0; i < kept; i++ {
			found, err := m.ContainsWithin(ctx, q, s.comp(i))
			if err != nil || found {
				return found, err
			}
		}
		return false, nil
	}
	return x.verifyParallel(ctx, q, x.ds[graphID], s, kept)
}

// errComponentFound aborts the remaining component checks once any component
// hosts the query — a sentinel, not a failure.
var errComponentFound = errors.New("grapes: component match found")

// verifyParallel fans VF2 over components across the index's dedicated
// verification pool (hard-bounded at opts.Workers in flight); the first
// success cancels the remaining work. The dedicated pool keeps this nested
// fan-out off the shared pool, where a racer already running this
// verification inside a pool task would deadlock a single-worker pool.
func (x *Index) verifyParallel(ctx context.Context, q, g *graph.Graph, s *scratch, kept int) (bool, error) {
	var found atomic.Bool
	grp := x.vpool.NewGroup(ctx)
	for i := 0; i < kept; i++ {
		grp.Go(func(gctx context.Context) error {
			ok, err := vf2.New(g).ContainsWithin(gctx, q, s.comp(i))
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
