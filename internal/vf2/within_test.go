package vf2

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

// inducedSubgraph is the oracle the mask-restricted search replaced: the
// subgraph of g induced by the ascending vertices ids, rebuilt through a map
// and a Builder, vertex i of it being ids[i].
func inducedSubgraph(g *graph.Graph, ids []int32) *graph.Graph {
	old2new := make(map[int32]int, len(ids))
	b := graph.NewBuilder(g.Name() + "#induced")
	for i, v := range ids {
		old2new[v] = i
		b.AddVertex(g.Label(int(v)))
	}
	for _, v := range ids {
		labels := g.EdgeLabels(int(v))
		for i, w := range g.Neighbors(int(v)) {
			if nw, ok := old2new[w]; ok && w > v {
				if err := b.AddLabeledEdge(old2new[v], nw, labels[i]); err != nil {
					panic(err) // unreachable: endpoints exist and are distinct
				}
			}
		}
	}
	return b.MustBuild()
}

func randomGraph(r *rand.Rand, n, labels, edgeLabels int, p float64) *graph.Graph {
	b := graph.NewBuilder("g")
	for v := 0; v < n; v++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				if err := b.AddLabeledEdge(u, v, graph.Label(r.Intn(edgeLabels))); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.MustBuild()
}

// TestWithinMatchesInducedSubgraph: the search restricted to a vertex set
// finds exactly the embeddings, in exactly the order, that a matcher built
// over the induced subgraph finds — for sets that straddle word boundaries,
// connected and disconnected queries, queries with isolated vertices, and
// edge-labeled graphs — and ContainsWithin decides the same.
func TestWithinMatchesInducedSubgraph(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < 300; trial++ {
		n := []int{5, 20, 64, 65, 150}[r.Intn(5)]
		g := randomGraph(r, n, 1+r.Intn(3), 1+r.Intn(2), 2.5/float64(n))
		allowed := match.NewVertexSets(1, n)[0]
		var ids []int32
		keep := 0.2 + 0.8*r.Float64()
		for v := int32(0); int(v) < n; v++ {
			if r.Float64() < keep {
				allowed.Add(v)
				ids = append(ids, v)
			}
		}
		sub := inducedSubgraph(g, ids)
		// A query cut out of the graph (so that it often embeds), sometimes
		// of two pieces, sometimes with a vertex on no edge.
		q := randomGraph(r, 2+r.Intn(4), 3, 2, 0.5)
		if len(ids) >= 4 && r.Intn(3) > 0 {
			at := r.Intn(len(ids) - 3)
			q = inducedSubgraph(g, ids[at:at+2+r.Intn(2)])
		}

		var want, got []match.Embedding
		if err := New(sub).MatchStream(ctx, q, 1000, match.SinkFunc(func(e match.Embedding) bool {
			for u, v := range e {
				e[u] = ids[v]
			}
			want = append(want, e)
			return true
		})); err != nil {
			t.Fatal(err)
		}
		m := New(g)
		if err := match.Ranked(ctx, m, q, nil, allowed, 1000, match.SinkFunc(func(e match.Embedding) bool {
			got = append(got, e)
			return true
		})); err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, func(a, b match.Embedding) bool { return slices.Equal(a, b) }) {
			t.Fatalf("trial %d (n=%d, %d allowed): within found %v, induced subgraph %v", trial, n, len(ids), got, want)
		}
		ok, err := m.ContainsWithin(ctx, q, allowed)
		if err != nil || ok != (len(want) > 0) {
			t.Fatalf("trial %d: ContainsWithin = %v, %v; induced subgraph has %d embeddings", trial, ok, err, len(want))
		}
	}
}

// TestWithinNilIsWholeGraph: no set restricts nothing.
func TestWithinNilIsWholeGraph(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	q := graph.MustNew("q", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	m := New(g)
	if ok, err := m.ContainsWithin(context.Background(), q, nil); err != nil || !ok {
		t.Errorf("ContainsWithin(nil) = %v, %v", ok, err)
	}
	only := match.NewVertexSets(1, g.N())[0]
	only.Add(0)
	only.Add(1)
	if ok, err := m.ContainsWithin(context.Background(), q, only); err != nil || ok {
		t.Errorf("ContainsWithin({0,1}) = %v, %v; the path needs vertex 2", ok, err)
	}
}
