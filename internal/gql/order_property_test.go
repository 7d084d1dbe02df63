package gql

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/graph"
)

// Property: the greedy left-deep search order is a permutation of the
// query's vertices that starts at a minimal candidate set and keeps the
// prefix connected whenever the query itself is connected, each later
// vertex anchored on its first placed neighbour in adjacency order.
func TestSearchOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := difftest.Sparse(r, "g", 15+r.Intn(10), 4, func(int) graph.Label { return graph.Label(r.Intn(3)) })
		m := New(g)
		q := difftest.Random(r, 1, 3+r.Intn(7), 3)[0]
		cand, err := m.candidates(q, newTestBudget())
		if err != nil {
			return false
		}
		if cand == nil {
			return true // query not matchable; no order to validate
		}
		// A permutation, starting unanchored at a minimal candidate set.
		p := searchOrder(q, cand)
		order := p.Order
		if len(order) != q.N() || len(slices.Compact(slices.Sorted(slices.Values(order)))) != q.N() || p.Anchor[0] != -1 {
			return false
		}
		for u := range cand {
			if cand[u].Len() < cand[order[0]].Len() {
				return false
			}
		}
		// connected prefix, each vertex anchored on its first placed
		// neighbour in adjacency order
		placed := map[int32]bool{order[0]: true}
		for i, u := range order[1:] {
			anchor := int32(-1)
			for _, w := range q.Neighbors(int(u)) {
				if placed[w] {
					anchor = w
					break
				}
			}
			if anchor < 0 || p.Anchor[i+1] != anchor {
				return false
			}
			placed[u] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: candidate refinement never removes the vertices of a real
// embedding (refinement soundness). We plant the query by extracting it
// from the stored graph, so at least one embedding exists; its image
// vertices must survive refinement.
func TestRefinementSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := difftest.Random(r, 1, 12+r.Intn(8), 2)[0]
		m := New(g)
		// plant: take an induced connected subgraph as the query, mapping
		// new vertex i -> original vertex ids[i].
		k := 3 + r.Intn(4)
		start := r.Intn(g.N())
		ids := bfsVertices(g, start, k)
		q, new2old := inducedSubgraph(g, ids), ids
		cand, err := m.candidates(q, newTestBudget())
		if err != nil || cand == nil {
			return false // planted query must have candidates
		}
		if err := m.refineCandidates(q, cand, newTestBudget()); err != nil {
			return false
		}
		for u := 0; u < q.N(); u++ {
			if !cand[u].Has(new2old[u]) {
				return false // pruned the true image: unsound
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// inducedSubgraph returns the subgraph of g induced by the distinct vertices
// ids, vertex i of it being ids[i].
func inducedSubgraph(g *graph.Graph, ids []int32) *graph.Graph {
	b := graph.NewBuilder("q")
	for _, v := range ids {
		b.AddVertex(g.Label(int(v)))
	}
	for i, v := range ids {
		for j, w := range ids[:i] {
			if g.HasEdge(int(v), int(w)) {
				_ = b.AddLabeledEdge(i, j, g.EdgeLabel(int(v), int(w)))
			}
		}
	}
	return b.MustBuild()
}

func bfsVertices(g *graph.Graph, start, k int) []int32 {
	seen := map[int32]bool{int32(start): true}
	queue := []int32{int32(start)}
	var out []int32
	for len(queue) > 0 && len(out) < k {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, w := range g.Neighbors(int(v)) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return out
}
