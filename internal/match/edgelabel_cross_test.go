package match_test

// Edge-label cross-validation: with Definition 1's edge labels in play,
// every matcher must (i) agree with the reference matcher on decision and
// counts, and (ii) refuse embeddings that map a query edge onto a stored
// edge with a different label.

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
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

// extractEdgeLabeledQuery grows a connected query of up to wantEdges edges
// from a random vertex of g, carrying g's vertex and edge labels.
func extractEdgeLabeledQuery(r *rand.Rand, g *graph.Graph, wantEdges int) *graph.Graph {
	ids := []int32{int32(r.Intn(g.N()))} // in the order they join
	var edges [][2]int32
	used := map[[2]int32]bool{}
	for len(edges) < wantEdges {
		var frontier [][2]int32
		for _, v := range ids {
			for _, w := range g.Neighbors(int(v)) {
				if !used[[2]int32{min(v, w), max(v, w)}] {
					frontier = append(frontier, [2]int32{v, w})
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[r.Intn(len(frontier))]
		edges = append(edges, e)
		used[[2]int32{min(e[0], e[1]), max(e[0], e[1])}] = true
		if !slices.Contains(ids, e[1]) {
			ids = append(ids, e[1])
		}
	}
	slices.Sort(ids)
	b := graph.NewBuilder("q")
	for _, v := range ids {
		b.AddVertex(g.Label(int(v)))
	}
	for _, e := range edges {
		if err := b.AddLabeledEdge(slices.Index(ids, e[0]), slices.Index(ids, e[1]), g.EdgeLabel(int(e[0]), int(e[1]))); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}

// labeledEdge is two label-0 vertices joined by an edge of label l.
func labeledEdge(name string, l graph.Label) *graph.Graph {
	b := graph.NewBuilder(name)
	b.AddVertices(0, 2)
	if err := b.AddLabeledEdge(0, 1, l); err != nil {
		panic(err)
	}
	return b.MustBuild()
}

func TestEdgeLabeledPlantedQueryFound(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		g := randomEdgeLabeledGraph(r, 20+r.Intn(20), 15, 3, 3)
		wantCount(t, g, extractEdgeLabeledQuery(r, g, 3+r.Intn(5)), 1, 1)
	}
}

func TestEdgeLabeledCountsAgreeWithReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomEdgeLabeledGraph(r, 8+r.Intn(6), 5, 2, 2)
		return agreesWithReference(g, extractEdgeLabeledQuery(r, g, 2+r.Intn(3)), 100000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// An edge-label mismatch alone must rule out all embeddings: same
// structure, same vertex labels, different edge label.
func TestEdgeLabelMismatchRejectsEmbedding(t *testing.T) {
	wantCount(t, labeledEdge("g", 1), labeledEdge("q", 2), 10, 0)
}

// Rewritings must preserve edge labels, so searching an edge-labeled query
// under any rewriting's ranking yields the same counts.
func TestEdgeLabeledRewritingPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := randomEdgeLabeledGraph(r, 15, 10, 2, 2)
	checkRankings(t, g, extractEdgeLabeledQuery(r, g, 4))
}

func TestVerifyEmbeddingChecksEdgeLabels(t *testing.T) {
	if match.VerifyEmbedding(labeledEdge("q", 2), labeledEdge("g", 1), match.Embedding{0, 1}) == nil {
		t.Error("VerifyEmbedding must reject edge-label mismatches")
	}
}
