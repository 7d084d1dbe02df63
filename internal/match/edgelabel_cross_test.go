package match_test

// Edge-label cross-validation: with Definition 1's edge labels in play,
// every matcher must (i) agree with the reference matcher on decision and
// counts, and (ii) refuse embeddings that map a query edge onto a stored
// edge with a different label.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/rewrite"
)

func randomEdgeLabeledGraph(r *rand.Rand, n, extra, vLabels, eLabels int) *graph.Graph {
	b := graph.NewBuilder("g")
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(vLabels)))
	}
	for v := 1; v < n; v++ {
		if err := b.AddLabeledEdge(r.Intn(v), v, graph.Label(r.Intn(eLabels))); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdgePending(u, v) {
			if err := b.AddLabeledEdge(u, v, graph.Label(r.Intn(eLabels))); err != nil {
				panic(err)
			}
		}
	}
	return b.MustBuild()
}

// extractEdgeLabeledQuery grows a connected query carrying the source
// graph's edge labels.
func extractEdgeLabeledQuery(r *rand.Rand, g *graph.Graph, wantEdges int) *graph.Graph {
	start := r.Intn(g.N())
	inQ := map[int32]bool{int32(start): true}
	ordered := []int32{int32(start)}
	type edge struct{ u, v int32 }
	var qEdges []edge
	used := map[[2]int32]bool{}
	key := func(a, b int32) [2]int32 {
		if a > b {
			a, b = b, a
		}
		return [2]int32{a, b}
	}
	for len(qEdges) < wantEdges {
		var frontier []edge
		for _, v := range ordered {
			for _, w := range g.Neighbors(int(v)) {
				if !used[key(v, w)] {
					frontier = append(frontier, edge{v, w})
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[r.Intn(len(frontier))]
		qEdges = append(qEdges, e)
		used[key(e.u, e.v)] = true
		for _, x := range []int32{e.u, e.v} {
			if !inQ[x] {
				inQ[x] = true
				ordered = append(ordered, x)
			}
		}
	}
	ids := append([]int32(nil), ordered...)
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	old2new := make(map[int32]int, len(ids))
	b := graph.NewBuilder("q")
	for i, v := range ids {
		old2new[v] = i
		b.AddVertex(g.Label(int(v)))
	}
	for _, e := range qEdges {
		if err := b.AddLabeledEdge(old2new[e.u], old2new[e.v], g.EdgeLabel(int(e.u), int(e.v))); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}

func TestEdgeLabeledPlantedQueryFound(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		g := randomEdgeLabeledGraph(r, 20+r.Intn(20), 15, 3, 3)
		q := extractEdgeLabeledQuery(r, g, 3+r.Intn(5))
		for _, m := range allMatchers(g) {
			embs, err := m.Match(context.Background(), q, 1)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if len(embs) == 0 {
				t.Fatalf("trial %d %s: edge-labeled planted query not found", trial, m.Name())
			}
			if err := match.VerifyEmbedding(q, g, embs[0]); err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
		}
	}
}

func TestEdgeLabeledCountsAgreeWithReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomEdgeLabeledGraph(r, 8+r.Intn(6), 5, 2, 2)
		q := extractEdgeLabeledQuery(r, g, 2+r.Intn(3))
		const lim = 100000
		want, err := match.NewReference(g).Match(context.Background(), q, lim)
		if err != nil {
			return false
		}
		for _, m := range allMatchers(g) {
			got, err := m.Match(context.Background(), q, lim)
			if err != nil || len(got) != len(want) {
				return false
			}
			for _, e := range got {
				if match.VerifyEmbedding(q, g, e) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// An edge-label mismatch alone must rule out all embeddings: same
// structure, same vertex labels, different edge label.
func TestEdgeLabelMismatchRejectsEmbedding(t *testing.T) {
	b := graph.NewBuilder("g")
	b.AddVertex(0)
	b.AddVertex(0)
	if err := b.AddLabeledEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	qb := graph.NewBuilder("q")
	qb.AddVertex(0)
	qb.AddVertex(0)
	if err := qb.AddLabeledEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	q := qb.MustBuild()
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) != 0 {
			t.Errorf("%s: edge-label mismatch must yield no embeddings, got %v", m.Name(), embs)
		}
	}
}

// Rewritings must preserve edge labels, so searching an edge-labeled query
// under any rewriting's ranking yields the same counts.
func TestEdgeLabeledRewritingPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := randomEdgeLabeledGraph(r, 15, 10, 2, 2)
	q := extractEdgeLabeledQuery(r, g, 4)
	freq := rewrite.FrequenciesOf(g)
	const lim = 100000
	for _, m := range allMatchers(g) {
		orig, err := m.Match(context.Background(), q, lim)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range rewrite.Structured {
			got, err := rankedMatch(m, q, rewrite.Compute(q, freq, k, 0), lim)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(orig) {
				t.Fatalf("%s/%v: %d vs %d embeddings", m.Name(), k, len(got), len(orig))
			}
			for _, e := range got {
				if err := match.VerifyEmbedding(q, g, e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestVerifyEmbeddingChecksEdgeLabels(t *testing.T) {
	b := graph.NewBuilder("g")
	b.AddVertex(0)
	b.AddVertex(0)
	if err := b.AddLabeledEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	qb := graph.NewBuilder("q")
	qb.AddVertex(0)
	qb.AddVertex(0)
	if err := qb.AddLabeledEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	q := qb.MustBuild()
	if match.VerifyEmbedding(q, g, match.Embedding{0, 1}) == nil {
		t.Error("VerifyEmbedding must reject edge-label mismatches")
	}
}
