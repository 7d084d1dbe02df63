package spath

import (
	"context"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

func TestName(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0}, nil)
	m := New(g)
	if m.Name() != "SPA" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Graph() != g {
		t.Error("Graph accessor")
	}
	if m.sig.radius != DefaultRadius {
		t.Errorf("radius = %d", m.sig.radius)
	}
}

func TestRadiusClamp(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0}, nil)
	if NewWithRadius(g, 0).sig.radius != 1 {
		t.Error("radius must clamp to >= 1")
	}
}

func TestSignatureRows(t *testing.T) {
	// path 0-1-2-3 with labels 5,6,7,8: vertex 0's rows grow by one label
	// per radius and keep what the smaller radii saw.
	g := graph.MustNew("p", []graph.Label{5, 6, 7, 8}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	sig := buildSignatures(g, 3)
	want := [][]labelCount{{{6, 1}}, {{6, 1}, {7, 1}}, {{6, 1}, {7, 1}, {8, 1}}}
	for d, w := range want {
		if got := sig.row(0, d); !slices.Equal(got, w) {
			t.Errorf("row(0, %d) = %v, want %v", d, got, w)
		}
	}
	// Vertex 1 sees labels 5 and 7 at distance 1: one sorted row.
	if got, w := sig.row(1, 0), []labelCount{{5, 1}, {7, 1}}; !slices.Equal(got, w) {
		t.Errorf("row(1, 0) = %v, want %v", got, w)
	}
}

func TestContainsIsCumulative(t *testing.T) {
	// Query vertex 0 sees a label-7 vertex at distance 2; stored vertex 0
	// sees one at distance 1. Cumulative containment must accept (distances
	// shrink in embeddings).
	q := buildSignatures(graph.MustNew("q", []graph.Label{0, 1, 7}, [][2]int{{0, 1}, {1, 2}}), 2)
	g := buildSignatures(graph.MustNew("g", []graph.Label{0, 1, 7}, [][2]int{{0, 1}, {0, 2}}), 2)
	if !g.contains(0, &q, 0) {
		t.Error("cumulative containment should accept closer labels")
	}
	// The reverse must reject: a label required at distance 1 cannot be
	// satisfied at distance 2.
	if q.contains(0, &g, 0) {
		t.Error("label required at distance 1 cannot be satisfied at distance 2")
	}
	// Counts matter, not just presence.
	two := buildSignatures(graph.MustNew("two", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}}), 2)
	one := buildSignatures(graph.MustNew("one", []graph.Label{0, 1}, [][2]int{{0, 1}}), 2)
	if !two.contains(0, &one, 0) || one.contains(0, &two, 0) {
		t.Error("containment must compare counts per label")
	}
}

func TestDecomposeCoversAllEdges(t *testing.T) {
	g := graph.MustNew("q", []graph.Label{0, 0, 0, 0, 0},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	paths := decompose(g, 4)
	covered := make(map[[2]int32]bool)
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			a, b := p[i], p[i+1]
			if a > b {
				a, b = b, a
			}
			if !g.HasEdge(int(a), int(b)) {
				t.Fatalf("path %v uses non-edge (%d,%d)", p, a, b)
			}
			covered[[2]int32{a, b}] = true
		}
	}
	if len(covered) != g.M() {
		t.Errorf("decomposition covers %d edges, query has %d", len(covered), g.M())
	}
}

func TestDecomposeRespectsMaxLen(t *testing.T) {
	// long path graph: 10 edges must be chopped into ≤4-edge segments
	labels := make([]graph.Label, 11)
	var edges [][2]int
	for i := 0; i < 10; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g := graph.MustNew("long", labels, edges)
	paths := decompose(g, 4)
	for _, p := range paths {
		if len(p)-1 > 4 {
			t.Errorf("path %v exceeds max length 4", p)
		}
	}
}

func TestDecomposeIsolatedVertex(t *testing.T) {
	g := graph.MustNew("iso", []graph.Label{0, 0, 0}, [][2]int{{0, 1}})
	paths := decompose(g, 4)
	seen := make(map[int32]bool)
	for _, p := range paths {
		for _, v := range p {
			seen[v] = true
		}
	}
	if !seen[2] {
		t.Error("isolated vertex 2 must appear in some path")
	}
}

func TestMatchTriangleQuery(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 0, 0, 0},
		[][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	q := graph.MustNew("q", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	m := New(g)
	embs, err := m.Match(context.Background(), q, 100)
	if err != nil {
		t.Fatal(err)
	}
	// triangle {0,1,2}: 3! = 6 automorphic embeddings
	if len(embs) != 6 {
		t.Errorf("got %d embeddings, want 6", len(embs))
	}
	for _, e := range embs {
		if err := match.VerifyEmbedding(q, g, e); err != nil {
			t.Errorf("invalid embedding %v: %v", e, err)
		}
	}
}

func TestCandidateFilterByDistanceSignature(t *testing.T) {
	// Stored graph: two label-0 vertices; only vertex 0 has a label-9
	// vertex within distance 2.
	g := graph.MustNew("g", []graph.Label{0, 1, 9, 0, 1},
		[][2]int{{0, 1}, {1, 2}, {3, 4}})
	q := graph.MustNew("q", []graph.Label{0, 1, 9}, [][2]int{{0, 1}, {1, 2}})
	m := New(g)
	cand, err := m.candidates(q, match.NewBudget(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if cand == nil {
		t.Fatal("candidates should exist")
	}
	if !cand[0].Has(0) {
		t.Error("vertex 0 must be a candidate for query vertex 0")
	}
	if cand[0].Has(3) {
		t.Error("vertex 3 must be pruned: no label-9 within distance 2")
	}
}

func TestMatchDisconnectedQuery(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {2, 3}})
	q := graph.MustNew("q", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {2, 3}})
	embs, err := New(g).Match(context.Background(), q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// pairs (0,1),(2,3) for first comp × remaining pair for second = 2
	if len(embs) != 2 {
		t.Errorf("got %d embeddings, want 2", len(embs))
	}
}
