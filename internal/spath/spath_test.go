package spath

import (
	"context"
	"maps"
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
	if NewWithRadius(g, 0, nil).sig.radius != 1 {
		t.Error("radius must clamp to >= 1")
	}
}

func TestSignatureRows(t *testing.T) {
	// path 0-1-2-3 with labels 5,6,7,8: vertex 0's rows grow by one label
	// per radius and keep what the smaller radii saw.
	g := graph.MustNew("p", []graph.Label{5, 6, 7, 8}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	sig := ownSignatures(t, g, 3)
	want := []map[graph.Label]int32{{6: 1}, {6: 1, 7: 1}, {6: 1, 7: 1, 8: 1}}
	for d, w := range want {
		if got := decode(sig.row(0, d), g.LabelValues()); !maps.Equal(got, w) {
			t.Errorf("row(0, %d) = %v, want %v", d, got, w)
		}
	}
	// One label of four is a (rank high byte, rank low byte, count) triple;
	// two or more are four counts indexed by rank.
	for d, w := range [][]byte{{0, 1, 1}, {0, 1, 1, 0}, {0, 1, 1, 1}} {
		if got := sig.row(0, d); !slices.Equal(got, w) {
			t.Errorf("row(0, %d) is stored as %v, want %v", d, got, w)
		}
	}
	// Vertex 1 sees labels 5 and 7 at distance 1: one row.
	if got, w := decode(sig.row(1, 0), g.LabelValues()), (map[graph.Label]int32{5: 1, 7: 1}); !maps.Equal(got, w) {
		t.Errorf("row(1, 0) = %v, want %v", got, w)
	}
}

func TestContainsIsCumulative(t *testing.T) {
	// Query vertex 0 sees a label-7 vertex at distance 2; stored vertex 0
	// sees one at distance 1. Cumulative containment must accept (distances
	// shrink in embeddings).
	// (The graphs of a pair have one alphabet, so each one's own rank space
	// is the other's.)
	q := ownSignatures(t, graph.MustNew("q", []graph.Label{0, 1, 7}, [][2]int{{0, 1}, {1, 2}}), 2)
	g := ownSignatures(t, graph.MustNew("g", []graph.Label{0, 1, 7}, [][2]int{{0, 1}, {0, 2}}), 2)
	if !g.contains(0, &q, 0) {
		t.Error("cumulative containment should accept closer labels")
	}
	// The reverse must reject: a label required at distance 1 cannot be
	// satisfied at distance 2.
	if q.contains(0, &g, 0) {
		t.Error("label required at distance 1 cannot be satisfied at distance 2")
	}
	// Counts matter, not just presence.
	two := ownSignatures(t, graph.MustNew("two", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}}), 2)
	one := ownSignatures(t, graph.MustNew("one", []graph.Label{0, 1}, [][2]int{{0, 1}}), 2)
	if !two.contains(0, &one, 0) || one.contains(0, &two, 0) {
		t.Error("containment must compare counts per label")
	}

	// Every pairing of row forms, over four labels (one label of four is a
	// triple, two are four counts). Stored vertex 0 sees two label-1 vertices,
	// stored vertex 3 one label-1 and two label-2 vertices; vertex 7, label 3,
	// is isolated.
	stored := graph.MustNew("stored", []graph.Label{0, 1, 1, 0, 1, 2, 2, 3}, [][2]int{{0, 1}, {0, 2}, {3, 4}, {3, 5}, {3, 6}})
	s := ownSignatures(t, stored, 1)
	if len(s.row(0, 0)) != 3 || len(s.row(3, 0)) != 4 {
		t.Fatalf("stored rows %v and %v: want one sparse, one dense", s.row(0, 0), s.row(3, 0))
	}
	for _, tc := range []struct {
		name   string
		labels []graph.Label // of a star whose centre is vertex 0
		dense  bool          // the centre's row
		in0    bool          // contained in stored vertex 0's sparse row
		in3    bool          // contained in stored vertex 3's dense row
	}{
		{"sparse", []graph.Label{0, 1}, false, true, true},
		{"sparse, count too high for the dense row", []graph.Label{0, 1, 1}, false, true, false},
		{"sparse, label missing from the sparse row", []graph.Label{0, 2}, false, false, true},
		{"dense", []graph.Label{0, 1, 2}, true, false, true},
		{"dense, count too high", []graph.Label{0, 1, 1, 2}, true, false, false},
		{"no neighbour", []graph.Label{0}, false, true, true},
	} {
		var edges [][2]int
		for i := 1; i < len(tc.labels); i++ {
			edges = append(edges, [2]int{0, i})
		}
		qs, ok := buildSignatures(graph.MustNew(tc.name, tc.labels, edges), 1, stored, nil)
		if !ok {
			t.Fatalf("%s: labels %v are all in the stored graph", tc.name, tc.labels)
		}
		if got := len(qs.row(0, 0)) == 4; got != tc.dense {
			t.Errorf("%s: row %v, dense %v, want %v", tc.name, qs.row(0, 0), got, tc.dense)
		}
		if got0, got3 := s.contains(0, &qs, 0), s.contains(3, &qs, 0); got0 != tc.in0 || got3 != tc.in3 {
			t.Errorf("%s: contained in the sparse row %v, in the dense row %v, want %v and %v", tc.name, got0, got3, tc.in0, tc.in3)
		}
	}
	// More distinct labels than the stored row has, both sparse: over seven
	// labels, {1, 3} cannot fit in {1}, whatever the counts.
	wide := graph.MustNew("wide", []graph.Label{0, 1, 1, 2, 3, 4, 5, 6}, [][2]int{{0, 1}, {0, 2}})
	ws := ownSignatures(t, wide, 1)
	more, _ := buildSignatures(graph.MustNew("more", []graph.Label{0, 1, 3}, [][2]int{{0, 1}, {0, 2}}), 1, wide, nil)
	if len(ws.row(0, 0)) != 3 || len(more.row(0, 0)) != 6 || ws.contains(0, &more, 0) {
		t.Errorf("query row %v must not fit in stored row %v", more.row(0, 0), ws.row(0, 0))
	}
}

func TestDecomposeCoversAllEdges(t *testing.T) {
	g := graph.MustNew("q", []graph.Label{0, 0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	if err := checkDecomposition(g, decompose(g, 4), 4); err != nil {
		t.Error(err)
	}
}

// TestDecomposeRespectsMaxLen: a path of 10 edges is chopped into segments
// of at most 4.
func TestDecomposeRespectsMaxLen(t *testing.T) {
	var edges [][2]int
	for i := 0; i < 10; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g := graph.MustNew("long", make([]graph.Label, 11), edges)
	if err := checkDecomposition(g, decompose(g, 4), 4); err != nil {
		t.Error(err)
	}
}

// TestDecomposeIsolatedVertex: vertex 2 lies on no edge and still appears
// in some path.
func TestDecomposeIsolatedVertex(t *testing.T) {
	g := graph.MustNew("iso", []graph.Label{0, 0, 0}, [][2]int{{0, 1}})
	if err := checkDecomposition(g, decompose(g, 4), 4); err != nil {
		t.Error(err)
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

	// A label the stored graph lacks, between or above its own, means no
	// candidates, decided before any row is built.
	for _, l := range []graph.Label{5, 10} {
		foreign := graph.MustNew("foreign", []graph.Label{0, 1, l}, [][2]int{{0, 1}, {1, 2}})
		if sig, ok := buildSignatures(foreign, DefaultRadius, g, nil); ok || sig.off != nil || sig.rows != nil {
			t.Errorf("label %d: built %+v, ok %v; want nothing built", l, sig, ok)
		}
		if cand, err := m.candidates(foreign, match.NewBudget(context.Background())); cand != nil || err != nil {
			t.Errorf("label %d: candidates %v, error %v; want none", l, cand, err)
		}
		if embs, err := m.Match(context.Background(), foreign, 10); len(embs) != 0 || err != nil {
			t.Errorf("label %d: %d embeddings, error %v; want none", l, len(embs), err)
		}
	}
}
