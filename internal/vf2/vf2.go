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
// free and repeated queries avoid O(n) scans. Its match.Planner methods take
// a Matcher, one pointer, so searching through one per verification moves
// nothing to the heap.
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
func (m Matcher) Graph() *graph.Graph { return m.g }

// Match implements match.Matcher by collecting the stream into a slice.
func (m *Matcher) Match(ctx context.Context, q *graph.Graph, limit int) ([]match.Embedding, error) {
	return match.CollectMatch(ctx, m, q, limit)
}

// MatchStream implements match.StreamMatcher: embeddings are emitted into
// sink as the search discovers them.
func (m *Matcher) MatchStream(ctx context.Context, q *graph.Graph, limit int, sink match.Sink) error {
	return match.Ranked(ctx, *m, q, nil, nil, limit, sink)
}

// Plan implements match.Planner.
func (m Matcher) Plan(q *graph.Graph, _ *match.Budget) (match.Plan, error) { return visitPlan(q), nil }

// Contains reports whether q is subgraph-isomorphic to the stored graph
// (the decision problem solved in the FTV verification stage).
func (m *Matcher) Contains(ctx context.Context, q *graph.Graph) (bool, error) {
	return m.ContainsWithin(ctx, q, nil)
}

// ContainsWithin reports whether q is subgraph-isomorphic to the subgraph of
// the stored graph induced by allowed, a set over its vertices (nil: the
// whole graph) — how Grapes verifies a query against a connected component of
// its location info. The search visits the states, in the order, a matcher
// built over the induced subgraph would, without building it.
func (m *Matcher) ContainsWithin(ctx context.Context, q *graph.Graph, allowed match.VertexSet) (bool, error) {
	found := false
	err := match.Ranked(ctx, *m, q, nil, allowed, 1, match.SinkFunc(func(match.Embedding) bool {
		found = true
		return false
	}))
	return found, err
}

// Match runs VF2 once without retaining a matcher.
func Match(ctx context.Context, q, g *graph.Graph, limit int) ([]match.Embedding, error) {
	return New(g).Match(ctx, q, limit)
}

// visitPlan precomputes the order in which query vertices are matched,
// together with each step's anchor. Because the matched query set at depth d
// is always exactly the first d vertices of the order, the original VF2 rule
// — "lowest-ID unmatched query vertex adjacent to the matched set, else
// lowest-ID unmatched vertex" — depends only on the depth, not on which
// graph vertices were chosen, so it can be computed once per Match instead
// of rescanning all query vertices at every search node. The anchor is the
// first already-placed neighbor in adjacency order, matching the original
// runtime selection exactly (tie-breaking is load-bearing: it is what the
// paper's rewritings steer). Candidates are the anchor's image's neighbors
// (pruning rule 1: candidates must be directly connected to already-matched
// vertices of g), else all label-compatible vertices, and lookahead prunes.
func visitPlan(q *graph.Graph) match.Plan {
	n := q.N()
	p := match.NewPlan(n)
	for len(p.Order) < n {
		next, lowest := -1, -1
		for u := 0; u < n && next < 0; u++ {
			if p.Placed(int32(u)) {
				continue
			}
			if lowest < 0 {
				lowest = u
			}
			if p.FirstPlaced(q, int32(u)) >= 0 {
				next = u
			}
		}
		if next < 0 {
			next = lowest
		}
		p.Place(int32(next), p.FirstPlaced(q, int32(next)))
	}
	p.Admit = lookahead
	return p
}

// lookahead applies VF2's two lookahead pruning rules, in the non-induced
// (subgraph isomorphism) direction: query-side counts must not exceed
// graph-side counts. The join has already checked consistency: every placed
// neighbor of u maps to a neighbor of v through an edge with the query
// edge's label (which subsumes pruning rule 1 for multiple matched
// neighbors).
func lookahead(s *match.Search, u int, v int32) bool {
	// Classify unmatched neighbors of u and of v as "terminal" (adjacent to
	// the matched set) or "new"; the query may not demand more of either
	// class than the graph vertex offers.
	termQ, newQ := 0, 0
	for _, w := range s.Query().Neighbors(u) {
		if s.Image(w) >= 0 {
			continue
		}
		if adjacentToMatchedQ(s, w) {
			termQ++
		} else {
			newQ++
		}
	}
	termG, newG := 0, 0
	for _, w := range s.Graph().Neighbors(int(v)) {
		if !s.Free(w) {
			continue
		}
		if adjacentToMatchedG(s, w) {
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

func adjacentToMatchedQ(s *match.Search, w int32) bool {
	for _, x := range s.Query().Neighbors(int(w)) {
		if s.Image(x) >= 0 {
			return true
		}
	}
	return false
}

func adjacentToMatchedG(s *match.Search, w int32) bool {
	for _, x := range s.Graph().Neighbors(int(w)) {
		if s.Used(x) {
			return true
		}
	}
	return false
}
