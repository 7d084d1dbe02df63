package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero value is usable; NewBuilder additionally sets a name.
type Builder struct {
	name      string
	labels    []Label
	edges     [][2]int32
	edgeLabel []Label // parallel to edges
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// AddVertex appends a vertex with label l and returns its ID.
func (b *Builder) AddVertex(l Label) int {
	b.labels = append(b.labels, l)
	return len(b.labels) - 1
}

// AddVertices appends n vertices all carrying label l and returns the ID of
// the first one.
func (b *Builder) AddVertices(l Label, n int) int {
	first := len(b.labels)
	for i := 0; i < n; i++ {
		b.labels = append(b.labels, l)
	}
	return first
}

// N returns the number of vertices added so far.
func (b *Builder) N() int { return len(b.labels) }

// AddEdge records the undirected edge {u, v} with the default edge label 0.
// Endpoints must already exist and be distinct. Duplicate edges are
// detected at Build time.
func (b *Builder) AddEdge(u, v int) error { return b.AddLabeledEdge(u, v, 0) }

// AddLabeledEdge records the undirected edge {u, v} carrying label l.
func (b *Builder) AddLabeledEdge(u, v int, l Label) error {
	if u == v {
		return fmt.Errorf("graph %q: self-loop on vertex %d", b.name, u)
	}
	if u < 0 || u >= len(b.labels) || v < 0 || v >= len(b.labels) {
		return fmt.Errorf("graph %q: edge (%d,%d) out of range [0,%d)", b.name, u, v, len(b.labels))
	}
	if l < 0 {
		return fmt.Errorf("graph %q: negative edge label %d on (%d,%d)", b.name, l, u, v)
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
	b.edgeLabel = append(b.edgeLabel, l)
	return nil
}

// HasEdgePending reports whether the edge {u,v} has already been added to
// the builder. It is O(#edges) and intended for generators that must avoid
// duplicates without building intermediate graphs.
func (b *Builder) HasEdgePending(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	for _, e := range b.edges {
		if e[0] == int32(u) && e[1] == int32(v) {
			return true
		}
	}
	return false
}

// Build validates the accumulated structure and returns the immutable graph.
// It rejects duplicate edges so that the result is a simple graph.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	deg := make([]int, n)
	order := make([]int, len(b.edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		ei, ej := b.edges[order[i]], b.edges[order[j]]
		if ei[0] != ej[0] {
			return ei[0] < ej[0]
		}
		return ei[1] < ej[1]
	})
	for i := 1; i < len(order); i++ {
		if b.edges[order[i]] == b.edges[order[i-1]] {
			e := b.edges[order[i]]
			return nil, fmt.Errorf("graph %q: duplicate edge (%d,%d)", b.name, e[0], e[1])
		}
	}
	for _, e := range b.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	// CSR layout: offsets by prefix sum over degrees, then fill each
	// vertex's range through a moving cursor.
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int32(deg[v])
	}
	nbrs := make([]int32, 2*len(b.edges))
	elabs := make([]Label, 2*len(b.edges))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, idx := range order {
		e, l := b.edges[idx], b.edgeLabel[idx]
		nbrs[cursor[e[0]]], elabs[cursor[e[0]]] = e[1], l
		cursor[e[0]]++
		nbrs[cursor[e[1]]], elabs[cursor[e[1]]] = e[0], l
		cursor[e[1]]++
	}
	// Appending edges in (u,v)-sorted order leaves each vertex range with
	// its lower neighbors (added as e[1] endpoints, ascending in e[0])
	// before its higher neighbors (added as e[0] endpoints, ascending in
	// e[1]), i.e. already sorted — but only per half; merge-fix with a
	// stable insertion pass that carries labels along.
	for v := 0; v < n; v++ {
		a := nbrs[offsets[v]:offsets[v+1]]
		l := elabs[offsets[v]:offsets[v+1]]
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j] < a[j-1]; j-- {
				a[j], a[j-1] = a[j-1], a[j]
				l[j], l[j-1] = l[j-1], l[j]
			}
		}
	}
	maxLbl := Label(-1)
	for _, l := range b.labels {
		if l < 0 {
			return nil, fmt.Errorf("graph %q: negative label %d", b.name, l)
		}
		if l > maxLbl {
			maxLbl = l
		}
	}
	labels := make([]Label, n)
	copy(labels, b.labels)
	g := &Graph{name: b.name, labels: labels, offsets: offsets, nbrs: nbrs, elabs: elabs, m: len(b.edges), maxLbl: maxLbl}
	g.buildLabelIndex()
	return g, nil
}

// MustBuild is Build but panics on error; for fixtures built from literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
