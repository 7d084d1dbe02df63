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
	"sort"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

// DefaultRefineLevel matches the paper's setup: "a refined level of
// iterations of pseudo-subgraph isomorphism r = 4".
const DefaultRefineLevel = 4

// Matcher is a GraphQL instance bound to a stored graph.
type Matcher struct {
	g      *graph.Graph
	sig    [][]graph.Label // per-vertex sorted neighbour labels
	refine int
}

// New builds the GraphQL index for g with the default refinement level.
func New(g *graph.Graph) *Matcher { return NewWithRefinement(g, DefaultRefineLevel) }

// NewWithRefinement builds the index with an explicit pseudo-iso level.
func NewWithRefinement(g *graph.Graph, refine int) *Matcher {
	m := &Matcher{g: g, refine: refine}
	m.sig = make([][]graph.Label, g.N())
	for v := 0; v < g.N(); v++ {
		m.sig[v] = signature(g, v)
	}
	return m
}

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "GQL" }

// Graph returns the stored graph.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// signature returns the lexicographically sorted multiset of neighbour
// labels of v — the radius-1 neighbourhood signature.
func signature(g *graph.Graph, v int) []graph.Label {
	out := make([]graph.Label, 0, g.Degree(v))
	for _, w := range g.Neighbors(v) {
		out = append(out, g.Label(int(w)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
	if err := ctx.Err(); err != nil {
		return err
	}
	col := match.NewStreamCollector(limit, sink)
	if q.N() == 0 {
		return col.FinishStream(col.Found(match.Embedding{}))
	}
	if q.N() > m.g.N() || q.M() > m.g.M() {
		return nil
	}
	budget := match.NewBudget(ctx)
	cand, candSet, err := m.candidates(q, budget)
	if err != nil {
		return err
	}
	if cand == nil {
		return nil // some query vertex has no candidates
	}
	if err := m.refineCandidates(q, cand, candSet, budget); err != nil {
		return err
	}
	for _, c := range cand {
		if len(c) == 0 {
			return nil
		}
	}
	s := &searcher{
		m:       m,
		q:       q,
		cand:    cand,
		candSet: candSet,
		order:   m.searchOrder(q, cand),
		emb:     make(match.Embedding, q.N()),
		used:    make([]bool, m.g.N()),
		col:     col,
		budget:  budget,
	}
	for i := range s.emb {
		s.emb[i] = -1
	}
	return col.FinishStream(s.step(0))
}

// candidates builds the initial per-query-vertex candidates using label,
// degree, and signature-containment filters: as ascending lists, which the
// join enumerates and orders by, and as the same sets for membership tests.
// It returns nil if any list is empty.
func (m *Matcher) candidates(q *graph.Graph, budget *match.Budget) ([][]int32, []match.VertexSet, error) {
	qsig := make([][]graph.Label, q.N())
	for u := 0; u < q.N(); u++ {
		qsig[u] = signature(q, u)
	}
	cand := make([][]int32, q.N())
	candSet := match.NewVertexSets(q.N(), m.g.N())
	for u := 0; u < q.N(); u++ {
		for _, v := range m.g.VerticesWithLabel(q.Label(u)) {
			if err := budget.Step(); err != nil {
				return nil, nil, err
			}
			if m.g.Degree(int(v)) >= q.Degree(u) && sigContains(m.sig[v], qsig[u]) {
				cand[u] = append(cand[u], v)
				candSet[u].Add(v)
			}
		}
		if len(cand[u]) == 0 {
			return nil, nil, nil
		}
	}
	return cand, candSet, nil
}

// refineCandidates applies the pseudo subgraph isomorphism refinement: for
// up to m.refine iterations, a candidate v for query vertex u survives only
// if the neighbours of u can be matched to *distinct* neighbours of v, each
// within its own candidate list (a bipartite feasibility test solved with
// Kuhn's augmenting paths). The iteration stops early at a fixpoint. Pruned
// candidates leave both cand and candSet.
func (m *Matcher) refineCandidates(q *graph.Graph, cand [][]int32, candSet []match.VertexSet, budget *match.Budget) error {
	for iter := 0; iter < m.refine; iter++ {
		changed := false
		for u := 0; u < q.N(); u++ {
			kept := cand[u][:0]
			for _, v := range cand[u] {
				if err := budget.Step(); err != nil {
					return err
				}
				// The test reads the sets of u's neighbours, never u's own,
				// so v can leave candSet[u] at once.
				if m.neighborhoodFeasible(q, u, v, candSet) {
					kept = append(kept, v)
				} else {
					candSet[u].Remove(v)
					changed = true
				}
			}
			cand[u] = kept
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
// query vertex with the smallest candidate list (ties by ID); repeatedly
// append the vertex with the smallest candidate list among those adjacent
// to the prefix (falling back to any remaining vertex for disconnected
// queries). This mirrors GraphQL's left-deep plan enumeration driven by
// estimated intermediate result sizes.
func (m *Matcher) searchOrder(q *graph.Graph, cand [][]int32) []int32 {
	n := q.N()
	order := make([]int32, 0, n)
	placed := make([]bool, n)
	pick := func(connectedOnly bool) int32 {
		best := int32(-1)
		for u := 0; u < n; u++ {
			if placed[u] {
				continue
			}
			if connectedOnly {
				adj := false
				for _, w := range q.Neighbors(u) {
					if placed[w] {
						adj = true
						break
					}
				}
				if !adj {
					continue
				}
			}
			if best < 0 || len(cand[u]) < len(cand[best]) {
				best = int32(u)
			}
		}
		return best
	}
	for len(order) < n {
		u := pick(len(order) > 0)
		if u < 0 {
			u = pick(false) // next component
		}
		placed[u] = true
		order = append(order, u)
	}
	return order
}

type searcher struct {
	m       *Matcher
	q       *graph.Graph
	cand    [][]int32
	candSet []match.VertexSet
	order   []int32
	emb     match.Embedding
	used    []bool
	col     *match.Collector
	budget  *match.Budget
}

func (s *searcher) step(i int) error {
	if i == len(s.order) {
		return s.col.Found(s.emb)
	}
	u := s.order[i]
	// If u already has a matched neighbour, enumerate that neighbour's
	// image adjacency rather than the whole candidate list.
	anchor := int32(-1)
	for _, w := range s.q.Neighbors(int(u)) {
		if s.emb[w] >= 0 {
			anchor = s.emb[w]
			break
		}
	}
	check := func(v int32) error {
		if s.used[v] {
			return nil
		}
		for _, w := range s.q.Neighbors(int(u)) {
			if img := s.emb[w]; img >= 0 &&
				!s.m.g.HasEdgeLabeled(int(img), int(v), s.q.EdgeLabel(int(u), int(w))) {
				return nil
			}
		}
		s.emb[u] = v
		s.used[v] = true
		if err := s.step(i + 1); err != nil {
			return err
		}
		s.used[v] = false
		s.emb[u] = -1
		return nil
	}
	if anchor >= 0 {
		for _, v := range s.m.g.Neighbors(int(anchor)) {
			if err := s.budget.Step(); err != nil {
				return err
			}
			if !s.candSet[u].Has(v) {
				continue
			}
			if err := check(v); err != nil {
				return err
			}
		}
		return nil
	}
	for _, v := range s.cand[u] {
		if err := s.budget.Step(); err != nil {
			return err
		}
		if err := check(v); err != nil {
			return err
		}
	}
	return nil
}
