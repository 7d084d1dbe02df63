package graph

import (
	"strings"
	"testing"
)

// TestCSRRoundTrip rebuilds a graph from its own CSR arrays and asserts
// full equality, including the derived label index (via VerticesWithLabel).
func TestCSRRoundTrip(t *testing.T) {
	g := MustNew("rt", []Label{2, 0, 1, 0, 2}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}})
	labels, offsets, nbrs, elabs := g.CSR()
	h, err := FromCSR("rt", labels, offsets, nbrs, elabs)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	if !g.Equal(h) {
		t.Fatalf("round-tripped graph not equal:\n%v\n%v", g, h)
	}
	if h.Name() != "rt" || h.M() != g.M() || h.MaxLabel() != g.MaxLabel() {
		t.Fatalf("metadata mismatch: %v vs %v", h, g)
	}
	for l := Label(0); l <= g.MaxLabel(); l++ {
		a, b := g.VerticesWithLabel(l), h.VerticesWithLabel(l)
		if len(a) != len(b) {
			t.Fatalf("label index mismatch for label %d", l)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("label index mismatch for label %d at %d", l, i)
			}
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
	g := b.MustBuild()
	labels, offsets, nbrs, elabs := g.CSR()
	h, err := FromCSR("el", labels, offsets, nbrs, elabs)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	if !g.Equal(h) {
		t.Fatal("labeled-edge round trip not equal")
	}
}

func TestCSRRoundTripEmpty(t *testing.T) {
	g := NewBuilder("empty").MustBuild()
	labels, offsets, nbrs, elabs := g.CSR()
	h, err := FromCSR("empty", labels, offsets, nbrs, elabs)
	if err != nil {
		t.Fatalf("FromCSR empty: %v", err)
	}
	if h.N() != 0 || h.M() != 0 || h.MaxLabel() != -1 {
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
// loader must fail closed on, each on arrays of its own.
func CorruptCSRCases() []CSRCase {
	mk := func() ([]Label, []int32, []int32, []Label) {
		g := MustNew("c", []Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
		labels, offsets, nbrs, elabs := g.CSR()
		return append([]Label(nil), labels...), append([]int32(nil), offsets...),
			append([]int32(nil), nbrs...), append([]Label(nil), elabs...)
	}
	cases := []struct {
		name    string
		corrupt func(labels []Label, offsets, nbrs []int32, elabs []Label) ([]Label, []int32, []int32, []Label)
		want    string
	}{
		{"short offsets", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			return l, o[:len(o)-1], n, e
		}, "offsets"},
		{"bad anchor", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			o[0] = 1
			return l, o, n, e
		}, "offsets[0]"},
		{"non-monotone", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			o[1] = o[2] + 1
			return l, o, n, e
		}, "not monotone"},
		{"nbrs length", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			return l, o, n[:len(n)-1], e
		}, "neighbor entries"},
		{"elabs length", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			return l, o, n, e[:len(e)-1]
		}, "edge labels"},
		{"negative label", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			l[0] = -5
			return l, o, n, e
		}, "negative label"},
		{"neighbor out of range", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			n[0] = 99
			return l, o, n, e
		}, "out of range"},
		{"self loop", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			n[0] = 0
			return l, o, n, e
		}, "self-loop"},
		{"negative edge label", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			e[0] = -1
			return l, o, n, e
		}, "negative edge label"},
		{"asymmetric", func(l []Label, o, n []int32, e []Label) ([]Label, []int32, []int32, []Label) {
			// Vertex 0's only neighbor becomes 2, but 2's list holds only 1.
			n[0] = 2
			return l, o, n, e
		}, "mirror"},
	}
	var out []CSRCase
	for _, tc := range cases {
		labels, offsets, nbrs, elabs := tc.corrupt(mk())
		out = append(out, CSRCase{Name: tc.name, Labels: labels, Offsets: offsets, Nbrs: nbrs, Elabs: elabs, Want: tc.want})
	}
	// Unsorted-neighbors case needs a vertex with two neighbors.
	g := MustNew("u", []Label{0, 0, 0}, [][2]int{{0, 1}, {0, 2}})
	labels, offsets, nbrs, elabs := g.CSR()
	n2 := append([]int32(nil), nbrs...)
	n2[0], n2[1] = n2[1], n2[0]
	return append(out, CSRCase{Name: "unsorted neighbors", Labels: labels, Offsets: offsets, Nbrs: n2, Elabs: elabs, Want: "ascending"})
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
