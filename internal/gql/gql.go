// Package gql implements GraphQL (He & Singh, SIGMOD 2008), abbreviated GQL
// in the paper's figures. Per §3.1.2 of the paper, the indexing phase stores
// vertex labels and neighbourhood signatures (sorted labels of neighbours);
// query processing (i) retrieves candidate vertices per query vertex by
// label, degree, and signature containment, (ii) refines candidates with an
// iterated pseudo subgraph isomorphism test up to level r, and (iii) picks a
// greedy left-deep join order driven by estimated intermediate result sizes
// before the backtracking join.
//
// Because the join order is dominated by candidate-list sizes rather than
// node IDs, GraphQL is the least sensitive of the NFV methods to query
// rewritings — reproducing the paper's observation in §6.2.
package gql

import (
	"context"
	"slices"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

// DefaultRefineLevel matches the paper's setup: "a refined level of
// iterations of pseudo-subgraph isomorphism r = 4".
const DefaultRefineLevel = 4

// Matcher is a GraphQL instance bound to a stored graph.
type Matcher struct {
	g      *graph.Graph
	sig    []graph.Label // every vertex's sorted neighbour labels, at its CSR span
	refine int
}

// New builds the GraphQL index for g with the default refinement level.
func New(g *graph.Graph) *Matcher { return NewWithRefinement(g, DefaultRefineLevel) }

// NewWithRefinement builds the index with an explicit pseudo-iso level.
func NewWithRefinement(g *graph.Graph, refine int) *Matcher {
	return &Matcher{g: g, sig: signatures(g), refine: refine}
}

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "GQL" }

// Graph returns the stored graph.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// signatures returns every vertex's radius-1 neighbourhood signature, the
// sorted multiset of its neighbours' labels, in one slab: vertex v's sits at
// its CSR span, where its neighbour list does.
func signatures(g *graph.Graph) []graph.Label {
	labels, off, nbrs, _ := g.CSR()
	sig := make([]graph.Label, len(nbrs))
	for i, w := range nbrs {
		sig[i] = labels[w]
	}
	for v := 0; v < g.N(); v++ {
		slices.Sort(sig[off[v]:off[v+1]])
	}
	return sig
}

// signature is vertex v's signature in sig, g's slab.
func signature(g *graph.Graph, sig []graph.Label, v int) []graph.Label {
	_, off, _, _ := g.CSR()
	return sig[off[v]:off[v+1]]
}

// sigContains reports whether sorted multiset sub is contained in sorted
// multiset super (two-pointer sweep).
func sigContains(super, sub []graph.Label) bool {
	i := 0
	for _, s := range sub {
		for i < len(super) && super[i] < s {
			i++
		}
		if i >= len(super) || super[i] != s {
			return false
		}
		i++
	}
	return true
}

// Match implements match.Matcher by collecting the stream into a slice.
func (m *Matcher) Match(ctx context.Context, q *graph.Graph, limit int) ([]match.Embedding, error) {
	return match.CollectMatch(ctx, m, q, limit)
}

// MatchStream implements match.StreamMatcher: embeddings are emitted into
// sink as the search discovers them.
func (m *Matcher) MatchStream(ctx context.Context, q *graph.Graph, limit int, sink match.Sink) error {
	return match.Ranked(ctx, m, q, nil, nil, limit, sink)
}

// Plan implements match.Planner: refined candidate sets and a greedy order.
func (m *Matcher) Plan(q *graph.Graph, budget *match.Budget) (match.Plan, error) {
	cand, err := m.candidates(q, budget)
	if cand == nil || err != nil {
		return match.Plan{}, err // some query vertex has no candidates, or cancelled
	}
	if err := m.refineCandidates(q, cand, budget); err != nil {
		return match.Plan{}, err
	}
	for _, c := range cand {
		if c.Next(0) < 0 {
			return match.Plan{}, nil
		}
	}
	return searchOrder(q, cand), nil
}

// candidates builds the initial per-query-vertex candidate sets using label,
// degree, and signature-containment filters. It returns nil if any set is
// empty.
func (m *Matcher) candidates(q *graph.Graph, budget *match.Budget) ([]match.VertexSet, error) {
	qsig := signatures(q)
	cand := match.NewVertexSets(q.N(), m.g.N())
	for u := 0; u < q.N(); u++ {
		sub := signature(q, qsig, u)
		empty := true
		for _, v := range m.g.VerticesWithLabel(q.Label(u)) {
			if err := budget.Step(); err != nil {
				return nil, err
			}
			if m.g.Degree(int(v)) >= q.Degree(u) && sigContains(signature(m.g, m.sig, int(v)), sub) {
				cand[u].Add(v)
				empty = false
			}
		}
		if empty {
			return nil, nil
		}
	}
	return cand, nil
}

// refineCandidates applies the pseudo subgraph isomorphism refinement: for
// up to m.refine iterations, a candidate v for query vertex u survives only
// if the neighbours of u can be matched to *distinct* neighbours of v, each
// within its own candidate set (a bipartite feasibility test solved with
// Kuhn's augmenting paths). The iteration stops early at a fixpoint.
func (m *Matcher) refineCandidates(q *graph.Graph, cand []match.VertexSet, budget *match.Budget) error {
	for iter := 0; iter < m.refine; iter++ {
		changed := false
		for u := 0; u < q.N(); u++ {
			for v := cand[u].Next(0); v >= 0; v = cand[u].Next(v + 1) {
				if err := budget.Step(); err != nil {
					return err
				}
				// The test reads the sets of u's neighbours, never u's own,
				// so v can leave cand[u] at once.
				if !m.neighborhoodFeasible(q, u, v, cand) {
					cand[u].Remove(v)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// neighborhoodFeasible runs the bipartite matching between N_q(u) and
// N_g(v): every query neighbour needs its own distinct graph neighbour that
// is one of its candidates.
func (m *Matcher) neighborhoodFeasible(q *graph.Graph, u int, v int32, candSet []match.VertexSet) bool {
	qn := q.Neighbors(u)
	gn := m.g.Neighbors(int(v))
	if len(qn) > len(gn) {
		return false
	}
	// matchTo[i] = index into qn matched to gn[i], or -1.
	matchTo := make([]int, len(gn))
	for i := range matchTo {
		matchTo[i] = -1
	}
	var try func(qi int, visited []bool) bool
	try = func(qi int, visited []bool) bool {
		uq := qn[qi]
		for gi, vg := range gn {
			if visited[gi] || !candSet[uq].Has(vg) {
				continue
			}
			visited[gi] = true
			if matchTo[gi] < 0 || try(matchTo[gi], visited) {
				matchTo[gi] = qi
				return true
			}
		}
		return false
	}
	for qi := range qn {
		visited := make([]bool, len(gn))
		if !try(qi, visited) {
			return false
		}
	}
	return true
}

// searchOrder computes the greedy left-deep join order: start from the
// query vertex with the smallest candidate set (ties by ID); repeatedly
// append the vertex with the smallest candidate set among those adjacent
// to the prefix (falling back to any remaining vertex for disconnected
// queries). This mirrors GraphQL's left-deep plan enumeration driven by
// estimated intermediate result sizes. A vertex with a placed neighbour
// enumerates the first one's image adjacency (in query adjacency order)
// rather than its whole candidate set.
func searchOrder(q *graph.Graph, cand []match.VertexSet) match.Plan {
	n := q.N()
	size := make([]int, n)
	for u := range size {
		size[u] = cand[u].Len()
	}
	p := match.NewPlan(n)
	pick := func(connectedOnly bool) int32 {
		best := int32(-1)
		for u := int32(0); int(u) < n; u++ {
			if p.Placed(u) || (connectedOnly && p.FirstPlaced(q, u) < 0) {
				continue
			}
			if best < 0 || size[u] < size[best] {
				best = u
			}
		}
		return best
	}
	for len(p.Order) < n {
		u := pick(len(p.Order) > 0)
		if u < 0 {
			u = pick(false) // next component
		}
		p.Place(u, p.FirstPlaced(q, u))
	}
	p.Cand = cand
	return p
}
