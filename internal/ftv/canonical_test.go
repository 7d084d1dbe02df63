package ftv

import (
	"testing"

	"github.com/psi-graph/psi/internal/graph"
)

func TestCanonicalKeyProperties(t *testing.T) {
	// isomorphic graphs with this simple shape get the same key
	a := graph.MustNew("a", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	b := graph.MustNew("b", []graph.Label{2, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Error("relabeled path should share a canonical key")
	}
	// different structure must differ
	c := graph.MustNew("c", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {0, 2}})
	if CanonicalKey(a) == CanonicalKey(c) {
		t.Error("different structures must have different keys")
	}
	// edge labels distinguish keys
	bb := graph.NewBuilder("d")
	bb.AddVertex(0)
	bb.AddVertex(1)
	if err := bb.AddLabeledEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	d := bb.MustBuild()
	e := graph.MustNew("e", []graph.Label{0, 1}, [][2]int{{0, 1}})
	if CanonicalKey(d) == CanonicalKey(e) {
		t.Error("edge labels must affect the key")
	}
}
