package graph

import (
	"slices"
	"strings"
	"testing"
)

// csrRoundTrip rebuilds g from its own CSR arrays.
func csrRoundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	labels, offsets, nbrs, elabs := g.CSR()
	h, err := FromCSR(g.Name(), labels, offsets, nbrs, elabs)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	return h
}

// TestCSRRoundTrip rebuilds a graph from its own CSR arrays and asserts
// full equality, including the derived label index (via VerticesWithLabel).
func TestCSRRoundTrip(t *testing.T) {
	g := MustNew("rt", []Label{2, 0, 1, 0, 2}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}})
	h := csrRoundTrip(t, g)
	if !g.Equal(h) || h.Name() != "rt" || h.M() != g.M() || h.MaxLabel() != g.MaxLabel() {
		t.Fatalf("round-tripped graph not equal:\n%v\n%v", g, h)
	}
	for l := Label(0); l <= g.MaxLabel(); l++ {
		if a, b := g.VerticesWithLabel(l), h.VerticesWithLabel(l); !slices.Equal(a, b) {
			t.Fatalf("label index mismatch for label %d: %v vs %v", l, a, b)
		}
	}
}

func TestCSRRoundTripLabeledEdges(t *testing.T) {
	b := NewBuilder("el")
	b.AddVertices(1, 4)
	for _, e := range [][3]int{{0, 1, 7}, {1, 2, 3}, {2, 3, 7}} {
		if err := b.AddLabeledEdge(e[0], e[1], Label(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	if g := b.MustBuild(); !g.Equal(csrRoundTrip(t, g)) {
		t.Fatal("labeled-edge round trip not equal")
	}
}

func TestCSRRoundTripEmpty(t *testing.T) {
	if h := csrRoundTrip(t, NewBuilder("empty").MustBuild()); h.N() != 0 || h.M() != 0 || h.MaxLabel() != -1 {
		t.Fatalf("empty graph mangled: %v", h)
	}
}

// CSRCase is a set of CSR arrays FromCSR must refuse, with what its error
// must mention. Exported for FuzzFromCSR, which seeds from every case.
type CSRCase struct {
	Name          string
	Labels        []Label
	Offsets, Nbrs []int32
	Elabs         []Label
	Want          string
}

// CorruptCSRCases returns every class of structural damage the snapshot
// loader must fail closed on, each on arrays of its own: a copy of the path
// 0-1-2's CSR, or, for the unsorted case, of a vertex with two neighbours.
func CorruptCSRCases() []CSRCase {
	var out []CSRCase
	for _, tc := range []struct {
		name    string
		corrupt func(c *CSRCase)
		want    string
	}{
		{"short offsets", func(c *CSRCase) { c.Offsets = c.Offsets[:len(c.Offsets)-1] }, "offsets"},
		{"bad anchor", func(c *CSRCase) { c.Offsets[0] = 1 }, "offsets[0]"},
		{"non-monotone", func(c *CSRCase) { c.Offsets[1] = c.Offsets[2] + 1 }, "not monotone"},
		{"nbrs length", func(c *CSRCase) { c.Nbrs = c.Nbrs[:len(c.Nbrs)-1] }, "neighbor entries"},
		{"elabs length", func(c *CSRCase) { c.Elabs = c.Elabs[:len(c.Elabs)-1] }, "edge labels"},
		{"negative label", func(c *CSRCase) { c.Labels[0] = -5 }, "negative label"},
		{"neighbor out of range", func(c *CSRCase) { c.Nbrs[0] = 99 }, "out of range"},
		{"self loop", func(c *CSRCase) { c.Nbrs[0] = 0 }, "self-loop"},
		{"negative edge label", func(c *CSRCase) { c.Elabs[0] = -1 }, "negative edge label"},
		// Vertex 0's only neighbor becomes 2, but 2's list holds only 1.
		{"asymmetric", func(c *CSRCase) { c.Nbrs[0] = 2 }, "mirror"},
		{"unsorted neighbors", func(c *CSRCase) { c.Nbrs[0], c.Nbrs[1] = c.Nbrs[1], c.Nbrs[0] }, "ascending"},
	} {
		g := MustNew("c", []Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
		if tc.name == "unsorted neighbors" {
			g = MustNew("u", []Label{0, 0, 0}, [][2]int{{0, 1}, {0, 2}})
		}
		labels, offsets, nbrs, elabs := g.CSR()
		c := CSRCase{tc.name, slices.Clone(labels), slices.Clone(offsets), slices.Clone(nbrs), slices.Clone(elabs), tc.want}
		tc.corrupt(&c)
		out = append(out, c)
	}
	return out
}

// TestFromCSRRejectsCorruption feeds FromCSR every class of structural
// damage the snapshot loader must fail closed on.
func TestFromCSRRejectsCorruption(t *testing.T) {
	for _, tc := range CorruptCSRCases() {
		t.Run(tc.Name, func(t *testing.T) {
			_, err := FromCSR("c", tc.Labels, tc.Offsets, tc.Nbrs, tc.Elabs)
			if err == nil {
				t.Fatal("corrupt CSR accepted")
			}
			if !strings.Contains(err.Error(), tc.Want) {
				t.Fatalf("error %q does not mention %q", err, tc.Want)
			}
		})
	}
}
