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
	"context"
	"slices"
	"sort"

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
func (m *Matcher) IndexBytes() int { return 2*len(m.sig.rows) + 4*len(m.sig.off) }

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
	cand, err := m.candidates(q, budget)
	if err != nil || cand == nil {
		return err
	}
	paths := decompose(q, DefaultMaxPathLen)
	orderPaths(paths, cand)
	s := &searcher{
		m:      m,
		q:      q,
		cand:   cand,
		paths:  paths,
		emb:    make(match.Embedding, q.N()),
		used:   make([]bool, m.g.N()),
		col:    col,
		budget: budget,
	}
	for i := range s.emb {
		s.emb[i] = -1
	}
	return col.FinishStream(s.matchPath(0, 0))
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
	sort.SliceStable(paths, func(i, j int) bool {
		ei, ej := est(paths[i]), est(paths[j])
		if ei != ej {
			return ei < ej
		}
		return paths[i][0] < paths[j][0]
	})
}

type searcher struct {
	m      *Matcher
	q      *graph.Graph
	cand   []match.VertexSet
	paths  [][]int32
	emb    match.Embedding
	used   []bool
	col    *match.Collector
	budget *match.Budget
}

// matchPath advances the edge-by-edge verification: position pos within
// path pi. Already-matched vertices are verified for adjacency only;
// unmatched ones branch over candidates.
func (s *searcher) matchPath(pi, pos int) error {
	if pi == len(s.paths) {
		return s.col.Found(s.emb)
	}
	path := s.paths[pi]
	if pos == len(path) {
		return s.matchPath(pi+1, 0)
	}
	u := path[pos]
	prevMapped := int32(-1)
	if pos > 0 {
		prevMapped = s.emb[path[pos-1]]
	}
	if v := s.emb[u]; v >= 0 {
		// Already matched by an earlier path: just verify the path edge.
		if prevMapped >= 0 &&
			!s.m.g.HasEdgeLabeled(int(prevMapped), int(v), s.q.EdgeLabel(int(path[pos-1]), int(u))) {
			return nil
		}
		return s.matchPath(pi, pos+1)
	}
	if prevMapped >= 0 {
		for _, v := range s.m.g.Neighbors(int(prevMapped)) {
			if err := s.try(pi, pos, u, v); err != nil {
				return err
			}
		}
		return nil
	}
	// Path head: the candidate set iterates in ascending vertex order.
	for v := s.cand[u].Next(0); v >= 0; v = s.cand[u].Next(v + 1) {
		if err := s.try(pi, pos, u, v); err != nil {
			return err
		}
	}
	return nil
}

// try places query vertex u = paths[pi][pos] on stored vertex v, if v is a
// free candidate whose edges agree with the partial embedding, and carries
// the search on from there.
func (s *searcher) try(pi, pos int, u, v int32) error {
	if err := s.budget.Step(); err != nil {
		return err
	}
	if s.used[v] || !s.cand[u].Has(v) {
		return nil
	}
	// Verify all edges back into the partial embedding, so cross-path
	// edges incident to u are enforced as soon as u is placed.
	for _, w := range s.q.Neighbors(int(u)) {
		if img := s.emb[w]; img >= 0 &&
			!s.m.g.HasEdgeLabeled(int(img), int(v), s.q.EdgeLabel(int(u), int(w))) {
			return nil
		}
	}
	s.emb[u] = v
	s.used[v] = true
	if err := s.matchPath(pi, pos+1); err != nil {
		return err
	}
	s.used[v] = false
	s.emb[u] = -1
	return nil
}
