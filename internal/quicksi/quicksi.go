// Package quicksi implements QuickSI (Shang, Zhang, Lin, Yu, PVLDB 2008),
// abbreviated QSI in the paper's figures. QuickSI precomputes label and
// edge-label-pair frequencies on the stored graph ("average inner support",
// §3.1.2), uses them to weight the query's edges, builds a rooted minimum
// spanning tree with Prim's algorithm, and matches query vertices in MST
// insertion order.
//
// Ties in root selection and in Prim's edge selection are broken by node ID,
// which is why isomorphic rewritings of the same query can behave very
// differently — QuickSI shows the widest (max/min) variance among the NFV
// methods in the paper's §5 study.
package quicksi

import (
	"context"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

// Matcher is a QuickSI instance bound to a stored graph.
type Matcher struct {
	g        *graph.Graph
	lblFreq  map[graph.Label]int
	edgeFreq map[[3]graph.Label]int
}

// New builds the QuickSI index (label and edge frequencies) for g. Edge
// frequencies are keyed on (endpoint labels, edge label), implementing the
// "infrequent adjacent edge labels" priority of §3.1.2.
func New(g *graph.Graph) *Matcher {
	m := &Matcher{
		g:        g,
		lblFreq:  g.LabelFrequencies(),
		edgeFreq: make(map[[3]graph.Label]int),
	}
	g.LabeledEdges(func(u, v int, l graph.Label) {
		m.edgeFreq[edgeKey(g.Label(u), g.Label(v), l)]++
	})
	return m
}

// Name implements match.Matcher.
func (m *Matcher) Name() string { return "QSI" }

// Graph returns the stored graph.
func (m *Matcher) Graph() *graph.Graph { return m.g }

func edgeKey(a, b, e graph.Label) [3]graph.Label {
	if a > b {
		a, b = b, a
	}
	return [3]graph.Label{a, b, e}
}

// plan builds the rooted-MST search sequence (the "SEQ" of the original
// paper) for query q: each vertex is matched from its tree parent (or from
// its label for a root), and its degree must not exceed its image's.
//
// Vertex weight = stored-graph frequency of the vertex's label; edge weight
// = stored-graph frequency of the edge's label pair. The root is the vertex
// with minimal (vertex weight, ID); Prim's algorithm then repeatedly adds
// the frontier edge with minimal (edge weight, new-vertex weight, new-vertex
// ID). Disconnected queries start a new root per component.
func (m *Matcher) plan(q *graph.Graph) match.Plan {
	n := q.N()
	p := match.NewPlan(n)
	vWeight := func(v int32) int { return m.lblFreq[q.Label(int(v))] }
	eWeight := func(a, b int32) int {
		return m.edgeFreq[edgeKey(q.Label(int(a)), q.Label(int(b)), q.EdgeLabel(int(a), int(b)))]
	}
	for len(p.Order) < n {
		// Pick a root among unplaced vertices: min (label weight, ID).
		root := int32(-1)
		for v := int32(0); int(v) < n; v++ {
			if p.Placed(v) {
				continue
			}
			if root < 0 || vWeight(v) < vWeight(root) {
				root = v
			}
		}
		p.Place(root, -1)
		// Prim: grow the tree of this component.
		for {
			bestU, bestP := int32(-1), int32(-1)
			bestEW, bestVW := 0, 0
			for _, pu := range p.Order {
				for _, w := range q.Neighbors(int(pu)) {
					if p.Placed(w) {
						continue
					}
					ew, vw := eWeight(pu, w), vWeight(w)
					if bestU < 0 || ew < bestEW ||
						(ew == bestEW && (vw < bestVW ||
							(vw == bestVW && w < bestU))) {
						bestU, bestP, bestEW, bestVW = w, pu, ew, vw
					}
				}
			}
			if bestU < 0 {
				break // component exhausted
			}
			p.Place(bestU, bestP)
		}
	}
	p.Admit = degreeAtLeast
	return p
}

// degreeAtLeast is QuickSI's pruning rule: a stored vertex can only host a
// query vertex of no greater degree.
func degreeAtLeast(s *match.Search, u int, v int32) bool {
	return s.Graph().Degree(int(v)) >= s.Query().Degree(u)
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

// Plan implements match.Planner.
func (m *Matcher) Plan(q *graph.Graph, _ *match.Budget) (match.Plan, error) { return m.plan(q), nil }
