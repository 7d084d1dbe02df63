package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// edge-labeled fixture: triangle with distinct edge labels plus a pendant.
func edgeLabeledGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("el")
	for _, l := range []Label{0, 1, 2, 1} {
		b.AddVertex(l)
	}
	for _, e := range []struct {
		u, v int
		l    Label
	}{{0, 1, 5}, {1, 2, 6}, {2, 0, 7}, {2, 3, 0}} {
		if err := b.AddLabeledEdge(e.u, e.v, e.l); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func TestEdgeLabelLookup(t *testing.T) {
	g := edgeLabeledGraph(t)
	cases := []struct {
		u, v int
		want Label
	}{{0, 1, 5}, {1, 0, 5}, {1, 2, 6}, {0, 2, 7}, {2, 3, 0}, {0, 3, -1}}
	for _, c := range cases {
		if got := g.EdgeLabel(c.u, c.v); got != c.want {
			t.Errorf("EdgeLabel(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
	if !g.HasEdgeLabeled(0, 1, 5) || g.HasEdgeLabeled(0, 1, 6) {
		t.Error("HasEdgeLabeled")
	}
	if g.HasEdgeLabeled(0, 3, 0) {
		t.Error("HasEdgeLabeled on a non-edge")
	}
}

func TestEdgeLabelsAlignedWithNeighbors(t *testing.T) {
	g := edgeLabeledGraph(t)
	for v := 0; v < g.N(); v++ {
		nb, el := g.Neighbors(v), g.EdgeLabels(v)
		if len(nb) != len(el) {
			t.Fatalf("vertex %d: %d neighbors vs %d edge labels", v, len(nb), len(el))
		}
		for i, w := range nb {
			if g.EdgeLabel(v, int(w)) != el[i] {
				t.Errorf("vertex %d: edge label misaligned at neighbor %d", v, w)
			}
		}
	}
}

func TestHasEdgeLabelsBeyondDefault(t *testing.T) {
	if !edgeLabeledGraph(t).HasEdgeLabelsBeyondDefault() {
		t.Error("edge-labeled graph should report non-default labels")
	}
	plain := MustNew("p", []Label{0, 0}, [][2]int{{0, 1}})
	if plain.HasEdgeLabelsBeyondDefault() {
		t.Error("default-labeled graph should report false")
	}
}

func TestLabeledEdgesIteration(t *testing.T) {
	g := edgeLabeledGraph(t)
	got := map[[2]int]Label{}
	g.LabeledEdges(func(u, v int, l Label) { got[[2]int{u, v}] = l })
	want := map[[2]int]Label{{0, 1}: 5, {0, 2}: 7, {1, 2}: 6, {2, 3}: 0}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, l := range want {
		if got[k] != l {
			t.Errorf("edge %v label = %d, want %d", k, got[k], l)
		}
	}
}

func TestBuilderRejectsNegativeEdgeLabel(t *testing.T) {
	b := NewBuilder("x")
	b.AddVertex(0)
	b.AddVertex(0)
	if err := b.AddLabeledEdge(0, 1, -1); err == nil {
		t.Error("expected error for negative edge label")
	}
}

func TestPermutePreservesEdgeLabels(t *testing.T) {
	g := edgeLabeledGraph(t)
	perm := Permutation{2, 0, 3, 1}
	h := g.MustPermute(perm)
	if !IsIsomorphismWitness(g, h, perm) {
		t.Fatal("permutation must be a label-preserving isomorphism")
	}
	if h.EdgeLabel(perm[0], perm[1]) != 5 || h.EdgeLabel(perm[1], perm[2]) != 6 {
		t.Error("edge labels must move with the permutation")
	}
	// A graph with a *different* edge label is not isomorphic under perm.
	b := NewBuilder("el2")
	for _, l := range []Label{0, 1, 2, 1} {
		b.AddVertex(l)
	}
	mustLabeled(t, b, 0, 1, 9) // changed from 5
	mustLabeled(t, b, 1, 2, 6)
	mustLabeled(t, b, 2, 0, 7)
	mustLabeled(t, b, 2, 3, 0)
	g2 := b.MustBuild()
	if IsIsomorphismWitness(g2, h, perm) {
		t.Error("witness must reject mismatched edge labels")
	}
}

func TestCloneEqualWithEdgeLabels(t *testing.T) {
	g := edgeLabeledGraph(t)
	h := g.Clone("c")
	if !g.Equal(h) {
		t.Error("clone must be Equal")
	}
	// differing only in one edge label => not Equal
	b := NewBuilder("el")
	for _, l := range []Label{0, 1, 2, 1} {
		b.AddVertex(l)
	}
	mustLabeled(t, b, 0, 1, 5)
	mustLabeled(t, b, 1, 2, 6)
	mustLabeled(t, b, 2, 0, 7)
	mustLabeled(t, b, 2, 3, 4) // was 0
	if g.Equal(b.MustBuild()) {
		t.Error("Equal must compare edge labels")
	}
}

func TestIOEdgeLabelsRoundTrip(t *testing.T) {
	g := edgeLabeledGraph(t)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	// label-0 edges are written without the third field
	if !bytes.Contains(buf.Bytes(), []byte("0 1 5")) {
		t.Errorf("labeled edge not serialized:\n%s", buf.String())
	}
	back, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !back[0].Equal(g) {
		t.Error("edge-labeled graph failed to round-trip")
	}
}

func TestIOEdgeLabelRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomEdgeLabeled(r, 2+r.Intn(12), 3, 4)
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			return false
		}
		back, err := ReadDataset(&buf)
		return err == nil && len(back) == 1 && back[0].Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPermuteEdgeLabelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomEdgeLabeled(r, 3+r.Intn(12), 3, 4)
		perm := Permutation(r.Perm(g.N()))
		h := g.MustPermute(perm)
		return IsIsomorphismWitness(g, h, perm) && g.Equal(h.MustPermute(perm.Inverse()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func mustLabeled(t *testing.T, b *Builder, u, v int, l Label) {
	t.Helper()
	if err := b.AddLabeledEdge(u, v, l); err != nil {
		t.Fatal(err)
	}
}

// randomEdgeLabeled builds a connected random graph with random vertex and
// edge labels.
func randomEdgeLabeled(r *rand.Rand, n, vLabels, eLabels int) *Graph {
	b := NewBuilder("rel")
	for i := 0; i < n; i++ {
		b.AddVertex(Label(r.Intn(vLabels)))
	}
	for v := 1; v < n; v++ {
		if err := b.AddLabeledEdge(r.Intn(v), v, Label(r.Intn(eLabels))); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n/2; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdgePending(u, v) {
			if err := b.AddLabeledEdge(u, v, Label(r.Intn(eLabels))); err != nil {
				panic(err)
			}
		}
	}
	return b.MustBuild()
}
