// Package spath implements sPath (Zhao & Han, PVLDB 2010), abbreviated SPA
// in the paper's figures. Per §3.1.2 of the paper, sPath maintains for every
// stored-graph vertex a neighbourhood signature decomposed distance-wise:
// for each radius d ≤ k it records how many vertices of each label lie
// within distance d. Query processing decomposes the query into shortest
// paths that cover all query edges, selects candidate paths with good
// selectivity (minimizing the estimated result size of each join), and
// verifies the chosen paths edge by edge.
package spath

import (
	"cmp"
	"context"
	"slices"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

// DefaultRadius matches the paper's setup: "a neighbourhood radius of 4 and
// maximum path length 4".
const DefaultRadius = 4

// DefaultMaxPathLen is the maximum number of edges per decomposed path.
const DefaultMaxPathLen = 4

// Matcher is an sPath instance bound to a stored graph.
type Matcher struct {
	g   *graph.Graph
	sig signatures // of g
}

// New builds the sPath distance-wise signature index with DefaultRadius.
func New(g *graph.Graph) *Matcher { return NewWithRadius(g, DefaultRadius) }

// NewWithRadius builds the index with an explicit neighbourhood radius.
func NewWithRadius(g *graph.Graph, radius int) *Matcher {
	if radius < 1 {
		radius = 1
	}
	sig, _ := buildSignatures(g, radius, g)
	// The slab lives as long as the matcher: drop the spare capacity (up to
	// a quarter) that appending left.
	sig.rows = slices.Clone(sig.rows)
	return &Matcher{g: g, sig: sig}
}

// IndexBytes returns the size of the signature index: the row slab and its
// offsets.
func (m *Matcher) IndexBytes() int { return len(m.sig.rows) + 4*len(m.sig.off) }

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "SPA" }

// Graph returns the stored graph.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// Match implements match.Matcher by collecting the stream into a slice.
func (m *Matcher) Match(ctx context.Context, q *graph.Graph, limit int) ([]match.Embedding, error) {
	return match.CollectMatch(ctx, m, q, limit)
}

// MatchStream implements match.StreamMatcher: embeddings are emitted into
// sink as the search discovers them.
func (m *Matcher) MatchStream(ctx context.Context, q *graph.Graph, limit int, sink match.Sink) error {
	return match.Ranked(ctx, m, q, nil, nil, limit, sink)
}

// Plan implements match.Planner: signature candidate sets and path order.
func (m *Matcher) Plan(q *graph.Graph, budget *match.Budget) (match.Plan, error) {
	cand, err := m.candidates(q, budget)
	if err != nil || cand == nil {
		return match.Plan{}, err
	}
	paths := decompose(q, DefaultMaxPathLen)
	orderPaths(paths, cand)
	return plan(q, paths, cand), nil
}

// candidates computes per-query-vertex candidate sets by label, degree and
// distance-signature containment. Returns nil if any set is empty, which a
// query label the stored graph lacks decides before any signature is built.
func (m *Matcher) candidates(q *graph.Graph, budget *match.Budget) ([]match.VertexSet, error) {
	qSig, ok := buildSignatures(q, m.sig.radius, m.g)
	if !ok {
		return nil, nil
	}
	cand := match.NewVertexSets(q.N(), m.g.N())
	for u := 0; u < q.N(); u++ {
		empty := true
		for _, v := range m.g.VerticesWithLabel(q.Label(u)) {
			if err := budget.Step(); err != nil {
				return nil, err
			}
			if m.g.Degree(int(v)) >= q.Degree(u) && m.sig.contains(int(v), &qSig, u) {
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

// decompose splits the query into paths of at most maxLen edges covering
// every query edge: BFS trees rooted per component give tree paths
// (root-to-leaf, chopped into maxLen segments), and every non-tree edge
// becomes a 1-edge path. Shared vertices across paths stitch the embedding
// together during the join.
func decompose(q *graph.Graph, maxLen int) [][]int32 {
	n := q.N()
	var (
		paths    [][]int32
		visited  = make([]bool, n)
		hasChild = make([]bool, n)
		parent   = make([]int32, n)
		order    = make([]int32, 0, n) // BFS order, component after component
		rev      []int32
	)
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		// BFS tree of this component: its stretch of order is the queue.
		first := len(order)
		visited[root] = true
		parent[root] = -1
		order = append(order, int32(root))
		for head := first; head < len(order); head++ {
			v := order[head]
			for _, w := range q.Neighbors(int(v)) {
				if !visited[w] {
					visited[w] = true
					parent[w] = v
					hasChild[v] = true
					order = append(order, w)
				}
			}
		}
		// Root-to-leaf tree paths, chopped into ≤ maxLen segments.
		for _, v := range order[first:] {
			if hasChild[v] {
				continue
			}
			rev = rev[:0]
			for x := v; x >= 0; x = parent[x] {
				rev = append(rev, x)
			}
			slices.Reverse(rev)
			for start := 0; start+1 < len(rev); start += maxLen {
				end := min(start+maxLen, len(rev)-1)
				paths = append(paths, slices.Clone(rev[start:end+1]))
			}
		}
		// Isolated vertex: single-vertex path so it still gets matched.
		if len(order)-first == 1 {
			paths = append(paths, []int32{int32(root)})
		}
	}
	// Non-tree edges as 1-edge paths: the segments covered every tree edge,
	// and an edge is a tree edge iff one endpoint is the other's parent.
	q.Edges(func(a, b int) {
		if parent[a] != int32(b) && parent[b] != int32(a) {
			paths = append(paths, []int32{int32(a), int32(b)})
		}
	})
	return paths
}

// orderPaths sorts paths by ascending selectivity estimate — the product of
// candidate-set sizes over the path's vertices (i.e. the estimated join
// result size) — with ties broken by first-vertex ID. Joining the most
// selective path first minimizes intermediate results, as in the original
// algorithm.
func orderPaths(paths [][]int32, cand []match.VertexSet) {
	size := make([]float64, len(cand))
	for u := range cand {
		size[u] = float64(cand[u].Len())
	}
	est := func(p []int32) float64 {
		e := 1.0
		for _, u := range p {
			e *= size[u]
		}
		return e
	}
	slices.SortStableFunc(paths, func(a, b []int32) int {
		if c := cmp.Compare(est(a), est(b)); c != 0 {
			return c
		}
		return cmp.Compare(a[0], b[0])
	})
}

// plan verifies the ordered paths edge by edge: it places each query vertex
// at its first occurrence, anchored on the path vertex before it, so a path
// head branches over its candidate set and every other vertex over the
// neighbours of its predecessor's image. A later occurrence adds nothing to
// check: the join verifies every edge back into the partial embedding as a
// vertex is placed, cross-path edges included, so each path edge between
// two already-placed vertices was verified when the later one was placed.
func plan(q *graph.Graph, paths [][]int32, cand []match.VertexSet) match.Plan {
	p := match.NewPlan(q.N())
	for _, path := range paths {
		for i, u := range path {
			if p.Placed(u) {
				continue
			}
			anchor := int32(-1)
			if i > 0 {
				anchor = path[i-1]
			}
			p.Place(u, anchor)
		}
	}
	p.Cand = cand
	return p
}
