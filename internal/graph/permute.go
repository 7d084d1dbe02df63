package graph

import "fmt"

// Permutation maps old vertex IDs to new vertex IDs: perm[old] = new.
// A valid permutation of a graph with n vertices is a bijection on [0, n).
type Permutation []int

// Identity returns the identity permutation on n vertices.
func Identity(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Validate reports an error unless p is a bijection on [0, len(p)).
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for old, nw := range p {
		if nw < 0 || nw >= len(p) {
			return fmt.Errorf("permutation: image %d of %d out of range [0,%d)", nw, old, len(p))
		}
		if seen[nw] {
			return fmt.Errorf("permutation: image %d repeated", nw)
		}
		seen[nw] = true
	}
	return nil
}

// Inverse returns q with q[p[v]] = v.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for old, nw := range p {
		q[nw] = old
	}
	return q
}

// Permute returns a new graph isomorphic to g in which vertex v of g has
// become vertex perm[v]. Labels and adjacency move with the vertices, so the
// result is isomorphic to g by construction (Definition 2 of the paper: an
// isomorphic graph is produced by permuting node IDs).
func (g *Graph) Permute(perm Permutation) (*Graph, error) {
	if len(perm) != g.N() {
		return nil, fmt.Errorf("permute %q: permutation has %d entries, graph has %d vertices", g.name, len(perm), g.N())
	}
	if err := perm.Validate(); err != nil {
		return nil, fmt.Errorf("permute %q: %w", g.name, err)
	}
	b := NewBuilder(g.name)
	labels := make([]Label, g.N())
	for old, nw := range perm {
		labels[nw] = g.labels[old]
	}
	for _, l := range labels {
		b.AddVertex(l)
	}
	var err error
	g.LabeledEdges(func(u, v int, l Label) {
		if err == nil {
			err = b.AddLabeledEdge(perm[u], perm[v], l)
		}
	})
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// MustPermute is Permute but panics on error; for use with permutations that
// are valid by construction (e.g. produced by the rewrite package).
func (g *Graph) MustPermute(perm Permutation) *Graph {
	h, err := g.Permute(perm)
	if err != nil {
		panic(err)
	}
	return h
}

// IsIsomorphismWitness reports whether perm is an isomorphism witness from g
// to h: vertex and edge labels preserved, edges mapped exactly onto edges.
func IsIsomorphismWitness(g, h *Graph, perm Permutation) bool {
	if g.N() != h.N() || g.M() != h.M() || len(perm) != g.N() {
		return false
	}
	if perm.Validate() != nil {
		return false
	}
	for v := 0; v < g.N(); v++ {
		if g.Label(v) != h.Label(perm[v]) {
			return false
		}
	}
	ok := true
	g.LabeledEdges(func(u, v int, l Label) {
		if !h.HasEdgeLabeled(perm[u], perm[v], l) {
			ok = false
		}
	})
	return ok
}
