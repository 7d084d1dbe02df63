// Package vf2 implements the VF2 subgraph isomorphism algorithm (Cordella,
// Foggia, Sansone, Vento, IEEE TPAMI 2004) for vertex-labeled undirected
// graphs, in its non-induced variant. VF2 is the verification algorithm
// underlying both FTV methods studied in the paper (Grapes and GGSX, §3.1.1).
//
// As the paper stresses, VF2 "does not define any order in which query
// vertices are selected": this implementation, like the original, picks the
// lowest-ID unmatched query vertex adjacent to the current partial match,
// which makes running time highly sensitive to the query's node numbering —
// the property the Ψ-framework's rewritings exploit.
package vf2

import (
	"context"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

// Matcher is a VF2 instance bound to a stored graph. Candidate generation
// uses the graph's precomputed label→vertex-range index, so construction is
// free and repeated queries avoid O(n) scans.
type Matcher struct {
	g *graph.Graph
}

// New builds a VF2 matcher over stored graph g.
func New(g *graph.Graph) *Matcher {
	return &Matcher{g: g}
}

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "VF2" }

// Graph returns the stored graph this matcher verifies against.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// Match implements match.Matcher by collecting the stream into a slice.
func (m *Matcher) Match(ctx context.Context, q *graph.Graph, limit int) ([]match.Embedding, error) {
	return match.CollectMatch(ctx, m, q, limit)
}

// MatchStream implements match.StreamMatcher: embeddings are emitted into
// sink as the search discovers them.
func (m *Matcher) MatchStream(ctx context.Context, q *graph.Graph, limit int, sink match.Sink) error {
	return m.stream(ctx, q, limit, nil, sink)
}

// stream is MatchStream over the subgraph of the stored graph induced by
// allowed (nil: the whole graph). Vertices outside the set are skipped as
// start candidates, as anchor neighbours and in the lookahead counts; since
// candidates are tried in ascending ID order either way, the search visits
// the same states, in the same order, as a matcher built over the induced
// subgraph would — without building it.
func (m *Matcher) stream(ctx context.Context, q *graph.Graph, limit int, allowed match.VertexSet, sink match.Sink) error {
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
	order, anchor := visitPlan(q)
	s := &state{
		q:      q,
		g:      m.g,
		order:  order,
		anchor: anchor,
		coreQ:  make([]int32, q.N()),
		taken:  make([]uint8, m.g.N()),
		col:    col,
		budget: match.NewBudget(ctx),
	}
	for i := range s.coreQ {
		s.coreQ[i] = -1
	}
	if allowed != nil {
		for v := range s.taken {
			s.taken[v] = outside
		}
		for v := allowed.Next(0); v >= 0; v = allowed.Next(v + 1) {
			s.taken[v] = 0
		}
	}
	return col.FinishStream(s.search(0))
}

// Contains reports whether q is subgraph-isomorphic to the stored graph
// (the decision problem solved in the FTV verification stage).
func (m *Matcher) Contains(ctx context.Context, q *graph.Graph) (bool, error) {
	return m.ContainsWithin(ctx, q, nil)
}

// ContainsWithin reports whether q is subgraph-isomorphic to the subgraph of
// the stored graph induced by allowed, a set over its vertices (nil: the
// whole graph) — how Grapes verifies a query against a connected component of
// its location info.
func (m *Matcher) ContainsWithin(ctx context.Context, q *graph.Graph, allowed match.VertexSet) (bool, error) {
	found := false
	err := m.stream(ctx, q, 1, allowed, match.SinkFunc(func(match.Embedding) bool {
		found = true
		return false
	}))
	return found, err
}

// Match runs VF2 once without retaining a matcher.
func Match(ctx context.Context, q, g *graph.Graph, limit int) ([]match.Embedding, error) {
	return New(g).Match(ctx, q, limit)
}

type state struct {
	q, g   *graph.Graph
	order  []int32 // static visit order: order[depth] is the query vertex matched at depth
	anchor []int32 // anchor[depth]: earlier-placed query neighbor of order[depth], or -1
	coreQ  []int32 // query vertex -> matched graph vertex or -1
	// taken says, per graph vertex, why no query vertex may be mapped to it
	// now — it is matched, or lies outside the allowed set — or 0 when one
	// may: one byte to test in the inner loops, restricted search or not.
	taken  []uint8
	col    *match.Collector
	budget *match.Budget
}

const (
	matched = 1 + iota
	outside
)

// visitPlan precomputes the order in which query vertices are matched,
// together with each step's anchor. Because the matched query set at depth d
// is always exactly the first d vertices of the order, the original VF2 rule
// — "lowest-ID unmatched query vertex adjacent to the matched set, else
// lowest-ID unmatched vertex" — depends only on the depth, not on which
// graph vertices were chosen, so it can be computed once per Match instead
// of rescanning all query vertices at every search node. The anchor is the
// first already-placed neighbor in adjacency order, matching the original
// runtime selection exactly (tie-breaking is load-bearing: it is what the
// paper's rewritings steer).
func visitPlan(q *graph.Graph) (order, anchor []int32) {
	n := q.N()
	order = make([]int32, 0, n)
	anchor = make([]int32, 0, n)
	placed := make([]bool, n)
	for len(order) < n {
		next, lowest := -1, -1
		for u := 0; u < n && next < 0; u++ {
			if placed[u] {
				continue
			}
			if lowest < 0 {
				lowest = u
			}
			for _, w := range q.Neighbors(u) {
				if placed[w] {
					next = u
					break
				}
			}
		}
		if next < 0 {
			next = lowest
		}
		a := int32(-1)
		for _, w := range q.Neighbors(next) {
			if placed[w] {
				a = w
				break
			}
		}
		order = append(order, int32(next))
		anchor = append(anchor, a)
		placed[next] = true
	}
	return order, anchor
}

func (s *state) search(depth int) error {
	if depth == s.q.N() {
		return s.col.Found(match.Embedding(s.coreQ))
	}
	u := int(s.order[depth])
	// Candidate generation: if u has matched neighbors, only neighbors of
	// their images qualify (pruning rule 1: candidates must be directly
	// connected to already-matched vertices of g). Otherwise all
	// label-compatible vertices are candidates.
	var candidates []int32
	if a := s.anchor[depth]; a >= 0 {
		candidates = s.g.Neighbors(int(s.coreQ[a]))
	} else {
		candidates = s.g.VerticesWithLabel(s.q.Label(u))
	}
	for _, v := range candidates {
		if err := s.budget.Step(); err != nil {
			return err
		}
		if s.taken[v] != 0 || s.g.Label(int(v)) != s.q.Label(u) {
			continue
		}
		if !s.feasible(u, v) {
			continue
		}
		s.coreQ[u] = v
		s.taken[v] = matched
		if err := s.search(depth + 1); err != nil {
			return err
		}
		s.coreQ[u] = -1
		s.taken[v] = 0
	}
	return nil
}

// feasible applies the consistency rule plus VF2's two lookahead pruning
// rules, in the non-induced (subgraph isomorphism) direction: query-side
// counts must not exceed graph-side counts.
func (s *state) feasible(u int, v int32) bool {
	// Consistency: every matched neighbor of u must map to a neighbor of v
	// through an edge with the query edge's label (this subsumes pruning
	// rule 1 for multiple matched neighbors).
	for _, w := range s.q.Neighbors(u) {
		if img := s.coreQ[w]; img >= 0 &&
			!s.g.HasEdgeLabeled(int(img), int(v), s.q.EdgeLabel(u, int(w))) {
			return false
		}
	}
	// Lookahead (rules 2 and 3): classify unmatched neighbors of u and of v
	// as "terminal" (adjacent to the matched set) or "new"; the query may
	// not demand more of either class than the graph vertex offers.
	termQ, newQ := 0, 0
	for _, w := range s.q.Neighbors(u) {
		if s.coreQ[w] >= 0 {
			continue
		}
		if s.adjacentToMatchedQ(w) {
			termQ++
		} else {
			newQ++
		}
	}
	termG, newG := 0, 0
	for _, w := range s.g.Neighbors(int(v)) {
		if s.taken[w] != 0 {
			continue
		}
		if s.adjacentToMatchedG(w) {
			termG++
		} else {
			newG++
		}
	}
	// Rule 2: terminal-count feasibility.
	if termQ > termG {
		return false
	}
	// Rule 3: total remaining-degree feasibility ("less adjacent
	// matched/candidate nodes than the corresponding figure in q").
	return termQ+newQ <= termG+newG
}

func (s *state) adjacentToMatchedQ(w int32) bool {
	for _, x := range s.q.Neighbors(int(w)) {
		if s.coreQ[x] >= 0 {
			return true
		}
	}
	return false
}

func (s *state) adjacentToMatchedG(w int32) bool {
	for _, x := range s.g.Neighbors(int(w)) {
		if s.taken[x] == matched {
			return true
		}
	}
	return false
}
