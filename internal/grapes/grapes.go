// Package grapes implements the Grapes indexed subgraph-query method
// (Giugno et al., PLoS One 2013) as described in §3.1.1 of the paper:
// simple paths up to a maximum length are extracted in a DFS manner from
// every dataset graph and indexed together with location information (which
// vertices each path touches). At query time the
// query's maximal paths prune the dataset by presence and frequency; the
// surviving graphs' location info yields the relevant connected components,
// each of which is verified with VF2. A location set keeps one form from the
// path DFS to that verification (ftv.LocSets: a bitset row over its graph's
// vertices or a vertex-ID list, whichever is smaller), the components are
// found on the stored graph under the sets' union, and VF2 searches the stored
// graph restricted to a component — nothing is rebuilt per candidate.
//
// Grapes is a multi-threaded design: index construction fans out across
// dataset graphs and verification across extracted components, both on the
// pool the index was built with — "Grapes/1" and "Grapes/4" in the paper's
// figures are instances of this index with 1 and 4 workers.
//
// The index implements the unified filtering-index contract of
// internal/index and keeps its features in that package's flat table
// (index.Path), the one every kind keeps them in, with the table's location
// slab: it is folded by the shared build pipeline from the path features
// (with locations) that pipeline extracts once for every kind (deterministic
// for every pool size, cancellable through a context), filtering goes through
// the table's presence/frequency pruning, and FilterStream emits candidates
// incrementally so verification can begin before filtering finishes. Grapes
// holds its table rather than being one, so it is no index.Inserter: an
// insert would extract no locations, and a mutable store rebuilds Grapes'
// shard instead.
package grapes

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
		return newIndex(opts, index.FoldPath(Kind, ds, ex, opts))
	}, true)
	// Restoring writes the table from exported features, location sets
	// included, so a restored index prunes verification to the same
	// components as the saved one; no path enumeration runs.
	index.RegisterRestorer(Kind, func(ds []*graph.Graph, maxPathLen int, opts index.Options, feats []index.ExportedFeature) (index.Index, error) {
		return newIndex(opts, index.RestorePath(Kind, ds, maxPathLen, opts, feats)), nil
	})
}

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

// Index is a built Grapes index over a dataset. Safe for concurrent use.
type Index struct {
	table   *index.Path // the features, their postings and location sets
	workers int
	pool    *exec.Pool // the component fan-out's pool when workers > 1
	stats   index.Stats
	last    atomic.Pointer[queryPlan]
}

// queryPlan is what filtering and verification derive from the query alone.
// The pipeline filters a query once and then verifies it against one
// candidate graph after another, so the index keeps the last query's plan
// rather than extract its maximal paths and look them up again per
// candidate. Query graphs are immutable, which makes the pointer a sound key;
// concurrent queries overwrite each other's plan and merely recompute.
type queryPlan struct {
	q     *graph.Graph
	feats []ftv.QueryFeature
	// posts[i] and refs[i] are feats[i]'s posting list and its postings'
	// location references, resolved once per query.
	posts     []index.PostingList
	refs      [][]ftv.LocRef
	unbounded bool // q has a vertex of degree 0, which no location bounds
	connected bool
}

func (x *Index) plan(q *graph.Graph) *queryPlan {
	if p := x.last.Load(); p != nil && p.q == q {
		return p
	}
	p := &queryPlan{q: q, feats: ftv.QueryFeatures(q, x.table.MaxPathLen()), connected: q.IsConnected()}
	p.posts = make([]index.PostingList, len(p.feats))
	p.refs = make([][]ftv.LocRef, len(p.feats))
	for i, f := range p.feats {
		p.posts[i], p.refs[i] = x.table.Located(f.Labels)
	}
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
// workers and folded into the table in graph-ID order, so the built index is
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

// newIndex wraps a built or restored table with the build's worker count
// (below 1 means 1) and pool, and the table's statistics under Grapes' name.
func newIndex(opts index.Options, table *index.Path) *Index {
	x := &Index{table: table, workers: max(opts.Workers, 1), pool: opts.Pool}
	if x.pool == nil {
		x.pool = exec.Default()
	}
	x.stats = table.Stats()
	x.stats.Name = x.Name()
	return x
}

// Close implements index.Index; a Grapes index owns nothing to release.
func (x *Index) Close() {}

// Name implements ftv.Index: "Grapes/<workers>".
func (x *Index) Name() string { return fmt.Sprintf("Grapes/%d", x.workers) }

// Dataset implements ftv.Index.
func (x *Index) Dataset() []*graph.Graph { return x.table.Dataset() }

// MaxPathLen returns the indexed path length.
func (x *Index) MaxPathLen() int { return x.table.MaxPathLen() }

// Table returns the table the index keeps its features in, which the other
// cells of its grid share a directory with (index.ShareDirectory).
func (x *Index) Table() *index.Path { return x.table }

// Stats implements index.Index.
func (x *Index) Stats() index.Stats { return x.stats }

// ExportFeatures implements index.FeatureExporter: the table's walk, its
// location sets expanded to vertex IDs.
func (x *Index) ExportFeatures(visit func(labels []graph.Label, postings []index.FeaturePosting) error) error {
	return x.table.ExportFeatures(visit)
}

// Filter implements ftv.Index: a graph survives iff it contains every
// maximal path of the query at least as often as the query does.
func (x *Index) Filter(q *graph.Graph) []int { return x.table.Filter(q) }

// FilterStream implements index.Index: surviving graph IDs are emitted
// incrementally in ascending order.
func (x *Index) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	return x.table.FilterFeatures(ctx, x.plan(q).feats, emit)
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
	n := x.Dataset()[graphID].N()
	s.mask = slices.Grow(s.mask[:0], ftv.Words(n))[:ftv.Words(n)]
	clear(s.mask)
	if n == 0 && len(p.feats) > 0 {
		// Nothing to embed into — and a tombstoned slot's placeholder under
		// a restored mutable store, whose stale locations nothing bounds.
		return false
	}
	sets := x.table.LocSets()
	for i, f := range p.feats {
		c := p.posts[i].Cursor()
		at, count, ok := c.Seek(int32(graphID))
		if !ok || count < f.Count {
			return false
		}
		sets.Union(p.refs[i][at], s.mask)
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
	if graphID < 0 || graphID >= len(x.Dataset()) {
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
// — one after another under Workers 1 and in parallel on the index's pool
// above, stopping at the first match, matching the paper's modification of
// Grapes to "return after the first match of the query graph".
func (x *Index) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	ds := x.Dataset()
	if graphID < 0 || graphID >= len(ds) {
		return false, fmt.Errorf("grapes: graph ID %d out of range [0,%d)", graphID, len(ds))
	}
	if q.N() == 0 {
		return true, nil
	}
	m, p := vf2.New(ds[graphID]), x.plan(q)
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
	kept := s.components(ds[graphID], q.N(), q.M())
	if x.workers == 1 || kept <= 1 {
		for i := 0; i < kept; i++ {
			found, err := m.ContainsWithin(ctx, q, s.comp(i))
			if err != nil || found {
				return found, err
			}
		}
		return false, nil
	}
	return x.verifyParallel(ctx, q, ds[graphID], s, kept)
}

// errComponentFound aborts the remaining component checks once any component
// hosts the query — a sentinel, not a failure.
var errComponentFound = errors.New("grapes: component match found")

// verifyParallel fans VF2 over components on the index's pool; the first
// success cancels the remaining work. Verification runs inside a pipeline's
// Group task or a rewriting race's attempt, either of which may hold a
// worker, so the Group is always nested: each component goes to an idle
// worker or runs on the verifying goroutine, and never waits for one.
func (x *Index) verifyParallel(ctx context.Context, q, g *graph.Graph, s *scratch, kept int) (bool, error) {
	var found atomic.Bool
	grp := x.pool.NewGroup(exec.Nest(ctx))
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
