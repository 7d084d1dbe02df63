package index

// The verifier an index name selects over the one table; a set of names
// verifies with the one its table kind selects (TableKind). "ftv" and "ggsx"
// run VF2 against the whole stored graph. "grapes" is Grapes' verification
// (Giugno et al., PLoS One 2013, §3.1.1 of the paper): the query's maximal
// paths locate, through the table's location sets, the vertices any
// embedding must lie inside; the stored graph under that mask splits into
// connected components, and VF2 searches each one big enough for the query,
// restricted to it on the stored graph, so nothing is rebuilt per candidate.
// Above one worker the components fan out on the pool — "Grapes/1" and
// "Grapes/4" in the paper's figures are this verifier with 1 and 4 workers.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/vf2"
)

// Verifier decides the candidates of a table: the choice an index name
// makes. The one implementation here is VF2, over the whole stored graph or
// confined by the table's location sets; the interface is the pipeline's
// test seam. Safe for concurrent use.
type Verifier interface {
	// Name labels the verifier after the name that selected it: "FTV",
	// "GGSX" or "Grapes/W".
	Name() string
	// Verify reports whether graph graphID of t, in range, contains q.
	Verify(ctx context.Context, t *Path, q *graph.Graph, graphID int) (bool, error)
}

// NewVerifier returns the verifier kind selects. opts.Workers is Grapes' W
// (below 1 means 1), and opts.Pool the pool its components fan out on (nil:
// the shared default pool).
func NewVerifier(kind string, opts Options) (Verifier, error) {
	if err := checkKind(kind); err != nil {
		return nil, err
	}
	if kind != KindGrapes {
		return vf2Verifier{name: strings.ToUpper(kind)}, nil
	}
	v := vf2Verifier{located: true, workers: max(opts.Workers, 1), pool: opts.Pool}
	v.name = fmt.Sprintf("Grapes/%d", v.workers)
	if v.pool == nil {
		v.pool = exec.Default()
	}
	return v, nil
}

// vf2Verifier is every name's verifier: VF2 against the whole stored graph
// for "ftv" and "ggsx", and, located, confined to the components the
// table's location sets leave for "grapes" — whose table must keep them.
type vf2Verifier struct {
	name    string
	located bool
	workers int
	pool    *exec.Pool
}

func (v vf2Verifier) Name() string { return v.name }

// queryPlan is what located verification derives from the query alone. The
// pipeline filters a query once and then verifies it against one candidate
// after another, so a table keeps the last query's plan rather than extract
// its maximal paths and look them up again per candidate. Query graphs are
// immutable, which makes the pointer a sound key; concurrent queries
// overwrite each other's plan and merely recompute.
type queryPlan struct {
	q     *graph.Graph
	feats []ftv.QueryFeature
	// posts[i] and refs[i] are feats[i]'s posting list and its postings'
	// location references, resolved once per query.
	posts     []PostingList
	refs      [][]ftv.LocRef
	unbounded bool // q has a vertex of degree 0, which no location bounds
	connected bool
}

func (x *Path) plan(q *graph.Graph) *queryPlan {
	if p := x.last.Load(); p != nil && p.q == q {
		return p
	}
	p := &queryPlan{q: q, feats: ftv.QueryFeatures(q, x.maxPathLen), connected: q.IsConnected()}
	p.posts = make([]PostingList, len(p.feats))
	p.refs = make([][]ftv.LocRef, len(p.feats))
	for i, f := range p.feats {
		p.posts[i], p.refs[i] = x.Located(f.Labels)
	}
	for v := 0; v < q.N() && !p.unbounded; v++ {
		p.unbounded = q.Degree(v) == 0
	}
	x.last.Store(p)
	return p
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
// maximal paths within graph graphID — the vertices any embedding of q in
// that graph must lie inside: one OR per word of a row, one bit per member of
// a list. Locations bound only query vertices that lie on a path, so a query
// with a vertex of degree 0 is bounded by nothing: its mask is the whole
// graph. False when the graph fails the filter (some path missing or too
// rare).
func (x *Path) locate(p *queryPlan, graphID int, s *scratch) bool {
	n := x.ds[graphID].N()
	s.mask = slices.Grow(s.mask[:0], ftv.Words(n))[:ftv.Words(n)]
	clear(s.mask)
	if n == 0 && len(p.feats) > 0 {
		// Nothing to embed into — and a tombstoned slot's placeholder under
		// a restored mutable store, whose stale locations nothing bounds.
		return false
	}
	for i, f := range p.feats {
		c := p.posts[i].Cursor()
		at, count, ok := c.Seek(int32(graphID))
		if !ok || count < f.Count {
			return false
		}
		x.locs.Union(p.refs[i][at], s.mask)
	}
	if p.unbounded {
		for v := 0; v < n; v++ {
			s.mask.Add(int32(v))
		}
	}
	return true
}

// CandidateVertices reads located verification's mask out in ascending
// order: the vertices of graph graphID an embedding of q must lie inside. The
// boolean is false when the graph fails the filter, graphID is out of range
// or the table keeps no locations.
func (x *Path) CandidateVertices(q *graph.Graph, graphID int) ([]int32, bool) {
	if graphID < 0 || graphID >= len(x.ds) || x.refs == nil {
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
// vertices — and keeps, as rows of s.comps, those with at least minN vertices
// and minM edges. It returns how many it kept.
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

// Verify runs VF2 against the whole stored graph, or, located, splits the
// query's location info in the candidate graph into connected components
// and checks each one big enough for q by VF2 restricted to it on the stored
// graph — one after another under one worker and in parallel on the pool
// above — stopping at the first match, matching the paper's modification of
// Grapes to "return after the first match of the query graph".
func (v vf2Verifier) Verify(ctx context.Context, t *Path, q *graph.Graph, graphID int) (bool, error) {
	g := t.ds[graphID]
	if !v.located {
		return vf2.New(g).Contains(ctx, q)
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if t.refs == nil {
		return false, fmt.Errorf("index: %s verifies with locations, which the %s table does not keep", v.name, t.kind)
	}
	if q.N() == 0 {
		return true, nil
	}
	m, p := vf2.New(g), t.plan(q)
	if p.unbounded {
		return m.Contains(ctx, q) // see locate
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if !t.locate(p, graphID, s) {
		return false, nil
	}
	// Disconnected queries cannot be confined to a single component.
	if !p.connected {
		return m.ContainsWithin(ctx, q, s.mask)
	}
	// Components too small to host the query are skipped outright.
	kept := s.components(g, q.N(), q.M())
	if v.workers == 1 || kept <= 1 {
		for i := 0; i < kept; i++ {
			found, err := m.ContainsWithin(ctx, q, s.comp(i))
			if err != nil || found {
				return found, err
			}
		}
		return false, nil
	}
	return v.verifyParallel(ctx, q, g, s, kept)
}

// errComponentFound aborts the remaining component checks once any component
// hosts the query — a sentinel, not a failure.
var errComponentFound = errors.New("index: component match found")

// verifyParallel fans VF2 over components on the verifier's pool; the first
// success cancels the remaining work. Verification runs inside a pipeline's
// Group task or a rewriting race's attempt, either of which may hold a
// worker, so the Group is always nested: each component goes to an idle
// worker or runs on the verifying goroutine, and never waits for one.
func (v vf2Verifier) verifyParallel(ctx context.Context, q, g *graph.Graph, s *scratch, kept int) (bool, error) {
	var found atomic.Bool
	grp := v.pool.NewGroup(exec.Nest(ctx))
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
	return false, err
}
