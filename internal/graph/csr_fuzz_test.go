package graph_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
)

// FuzzFromCSR hands graph.FromCSR arbitrary arrays, as a damaged snapshot
// section would: labels, offsets, neighbours and edge labels, each a run of
// little-endian 32-bit words. It must never panic, and a graph it accepts
// must give its inputs back from CSR() and equal the graph a Builder makes
// from the edges the arrays list. Seeded with generated graphs, one of them
// edge-labelled, and with every rejection case of
// TestFromCSRRejectsCorruption.
func FuzzFromCSR(f *testing.F) {
	add := func(labels []graph.Label, offsets, nbrs []int32, elabs []graph.Label) {
		f.Add(words(labels), words(offsets), words(nbrs), words(elabs))
	}
	for _, g := range gen.Synthetic(gen.SyntheticConfig{NumGraphs: 2, AvgNodes: 6, NodeSpread: 2, Density: 0.4, Labels: 3}, 1) {
		add(g.CSR())
	}
	add(gen.Single("el", gen.SingleConfig{Nodes: 8, Edges: 12, Labels: 3, EdgeLabels: 3}, 1).CSR())
	for _, c := range graph.CorruptCSRCases() {
		add(c.Labels, c.Offsets, c.Nbrs, c.Elabs)
	}
	f.Fuzz(func(t *testing.T, lb, ob, nb, eb []byte) {
		labels, offsets, nbrs, elabs := unwords[graph.Label](lb), unwords[int32](ob), unwords[int32](nb), unwords[graph.Label](eb)
		g, err := graph.FromCSR("fuzz", labels, offsets, nbrs, elabs)
		if err != nil {
			return
		}
		gl, goff, gn, ge := g.CSR()
		if !slices.Equal(gl, labels) || !slices.Equal(goff, offsets) || !slices.Equal(gn, nbrs) || !slices.Equal(ge, elabs) {
			t.Fatal("CSR() does not return the arrays the graph was made from")
		}
		b := graph.NewBuilder("fuzz")
		for _, l := range labels {
			b.AddVertex(l)
		}
		for v := range labels {
			for i := offsets[v]; i < offsets[v+1]; i++ {
				if w := int(nbrs[i]); w > v {
					if err := b.AddLabeledEdge(v, w, elabs[i]); err != nil {
						t.Fatalf("edge (%d,%d) of an accepted graph: %v", v, w, err)
					}
				}
			}
		}
		want, err := b.Build()
		if err != nil {
			t.Fatalf("the edges of an accepted graph do not build: %v", err)
		}
		if !g.Equal(want) || g.M() != want.M() || g.MaxLabel() != want.MaxLabel() {
			t.Fatalf("accepted %v, the builder makes %v from its edges", g, want)
		}
	})
}

func words[T ~int32](xs []T) []byte {
	out := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint32(out, uint32(x))
	}
	return out
}

// unwords reads b as little-endian 32-bit words, ignoring a partial last one.
func unwords[T ~int32](b []byte) []T {
	out := make([]T, len(b)/4)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
