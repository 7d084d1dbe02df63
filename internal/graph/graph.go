// Package graph provides the labeled-graph substrate shared by every
// component of the Ψ-framework reproduction: an immutable, vertex-labeled,
// undirected graph with sorted adjacency lists, plus construction,
// permutation, traversal, component, statistics, and serialization helpers.
//
// Vertices are identified by dense integer IDs in [0, N). Following the
// paper (Katsarou et al., EDBT 2017), node IDs are semantically meaningful:
// the query rewritings of §6 are pure node-ID permutations, and the matching
// algorithms break ties by node ID, which is exactly why isomorphic queries
// exhibit different running times.
package graph

import (
	"fmt"
	"sort"
)

// Label is a vertex label. The paper's datasets use small label alphabets
// (5–184 distinct labels), so a 32-bit integer is ample.
type Label int32

// Graph is an immutable labeled undirected simple graph. Both vertices and
// edges carry labels (Definition 1 of the paper); edge labels default to 0,
// which makes edge-unlabeled graphs a special case with zero overhead in
// the matching algorithms.
//
// Adjacency is stored in CSR (compressed sparse row) form: one flat
// neighbors array indexed by a per-vertex offsets array, with a parallel
// flat edge-label array. Vertex v's sorted neighbor list is
// neighbors[offsets[v]:offsets[v+1]]. The flat layout keeps each traversal
// within one contiguous allocation, which is what makes shared-memory
// subgraph matching cache-friendly.
//
// A precomputed label index (vertices sorted by (label, ID), with one range
// per distinct label) replaces the per-matcher map[Label][]int32 the
// algorithms used to build.
//
// The zero value is an empty graph. Construct non-trivial graphs with a
// Builder or with New. All accessors are safe for concurrent use because
// the structure is never mutated after construction.
type Graph struct {
	name    string
	labels  []Label
	offsets []int32 // len N()+1; offsets[v]..offsets[v+1] index neighbors/elabs
	nbrs    []int32 // flat sorted neighbor lists, len 2*M()
	elabs   []Label // elabs[i] labels the edge {v, nbrs[i]} for i in v's range
	m       int     // number of undirected edges
	maxLbl  Label   // largest vertex label present, -1 if none

	// Label index: lblOrder holds all vertices sorted by (label, ID);
	// lblVals lists the distinct labels ascending and lblStart[i] is the
	// start of lblVals[i]'s range in lblOrder (len(lblVals)+1 entries).
	lblOrder []int32
	lblVals  []Label
	lblStart []int32
}

// New constructs a graph directly from a label slice and an edge list.
// It is a convenience wrapper around Builder for tests and examples.
// Duplicate edges are rejected; self-loops are rejected.
func New(name string, labels []Label, edges [][2]int) (*Graph, error) {
	b := NewBuilder(name)
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// MustNew is New but panics on error; intended for tests and package-level
// example fixtures where the input is a literal.
func MustNew(name string, labels []Label, edges [][2]int) *Graph {
	g, err := New(name, labels, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the graph's identifier (dataset-graph name or query id).
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.labels) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Label returns the label of vertex v.
func (g *Graph) Label(v int) Label { return g.labels[v] }

// Labels returns the underlying label slice. Callers must not modify it.
func (g *Graph) Labels() []Label { return g.labels }

// MaxLabel returns the largest label value present, or -1 for an unlabeled
// (empty) graph. Useful for sizing frequency tables.
func (g *Graph) MaxLabel() Label { return g.maxLbl }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the sorted neighbor list of v. Callers must not modify
// the returned slice; it aliases the graph's internal storage.
func (g *Graph) Neighbors(v int) []int32 { return g.nbrs[g.offsets[v]:g.offsets[v+1]] }

// HasEdge reports whether the undirected edge {u, v} is present.
// It runs in O(log deg(u)) via binary search on the sorted adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// EdgeLabel returns the label of edge {u, v}, or -1 if the edge is absent.
func (g *Graph) EdgeLabel(u, v int) Label {
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	if i < len(a) && a[i] == int32(v) {
		return g.elabs[g.offsets[u]+int32(i)]
	}
	return -1
}

// HasEdgeLabeled reports whether edge {u, v} exists with label l — the
// compatibility check matchers use when mapping a query edge onto a stored
// edge (Definition 3 requires L(e) to be preserved).
func (g *Graph) HasEdgeLabeled(u, v int, l Label) bool {
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v) && g.elabs[g.offsets[u]+int32(i)] == l
}

// EdgeLabels reports the neighbor-aligned edge labels of v: entry i labels
// the edge to Neighbors(v)[i]. Callers must not modify the slice.
func (g *Graph) EdgeLabels(v int) []Label { return g.elabs[g.offsets[v]:g.offsets[v+1]] }

// HasEdgeLabelsBeyondDefault reports whether any edge carries a non-zero
// label; indexes use it to decide whether edge-label pruning can pay off.
func (g *Graph) HasEdgeLabelsBeyondDefault() bool {
	for _, l := range g.elabs {
		if l != 0 {
			return true
		}
	}
	return false
}

// Edges calls fn once per undirected edge with u < v. Iteration order is
// deterministic (ascending u, then ascending v).
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// LabeledEdges calls fn once per undirected edge with u < v and the edge's
// label.
func (g *Graph) LabeledEdges(fn func(u, v int, l Label)) {
	for u := 0; u < g.N(); u++ {
		base := g.offsets[u]
		for i, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w), g.elabs[base+int32(i)])
			}
		}
	}
}

// EdgeList materializes the edge list with u < v in deterministic order.
func (g *Graph) EdgeList() [][2]int {
	out := make([][2]int, 0, g.m)
	g.Edges(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

// LabelFrequencies returns a map from label to the number of vertices
// carrying it.
func (g *Graph) LabelFrequencies() map[Label]int {
	f := make(map[Label]int, len(g.lblVals))
	for i, l := range g.lblVals {
		f[l] = int(g.lblStart[i+1] - g.lblStart[i])
	}
	return f
}

// DistinctLabels returns the number of distinct vertex labels.
func (g *Graph) DistinctLabels() int { return len(g.lblVals) }

// LabelValues returns the distinct vertex labels in ascending order. With
// VerticesWithLabel it walks the vertices in (label, ID) order. Callers must
// not modify the returned slice.
func (g *Graph) LabelValues() []Label { return g.lblVals }

// LabelRank returns l's rank in the graph's alphabet — its position in
// LabelValues — and whether any vertex carries l; without one the rank means
// nothing. One binary search over the distinct labels.
func (g *Graph) LabelRank(l Label) (rank int, ok bool) {
	i := sort.Search(len(g.lblVals), func(i int) bool { return g.lblVals[i] >= l })
	return i, i < len(g.lblVals) && g.lblVals[i] == l
}

// VerticesWithLabel returns the ascending list of vertices carrying label l
// (empty if none), as a subslice of the graph's precomputed label index.
// Callers must not modify the returned slice. This is the O(log L) range
// lookup the matching algorithms use for candidate generation.
func (g *Graph) VerticesWithLabel(l Label) []int32 {
	i, ok := g.LabelRank(l)
	if !ok {
		return nil
	}
	return g.lblOrder[g.lblStart[i]:g.lblStart[i+1]]
}

// VerticesByLabel returns, for each label, the ascending list of vertices
// carrying it. The returned lists alias the graph's label index; callers
// must not modify them. Prefer VerticesWithLabel for single-label lookups —
// it avoids materializing the map.
func (g *Graph) VerticesByLabel() map[Label][]int32 {
	idx := make(map[Label][]int32, len(g.lblVals))
	for i, l := range g.lblVals {
		idx[l] = g.lblOrder[g.lblStart[i]:g.lblStart[i+1]]
	}
	return idx
}

// buildLabelIndex populates lblOrder/lblVals/lblStart from labels. Vertices
// are sorted by (label, ID), so each label's range is ascending by ID.
func (g *Graph) buildLabelIndex() {
	n := len(g.labels)
	g.lblOrder = make([]int32, n)
	for i := range g.lblOrder {
		g.lblOrder[i] = int32(i)
	}
	sort.SliceStable(g.lblOrder, func(i, j int) bool {
		return g.labels[g.lblOrder[i]] < g.labels[g.lblOrder[j]]
	})
	g.lblVals = g.lblVals[:0]
	g.lblStart = g.lblStart[:0]
	for i, v := range g.lblOrder {
		l := g.labels[v]
		if len(g.lblVals) == 0 || g.lblVals[len(g.lblVals)-1] != l {
			g.lblVals = append(g.lblVals, l)
			g.lblStart = append(g.lblStart, int32(i))
		}
	}
	g.lblStart = append(g.lblStart, int32(n))
}

// String implements fmt.Stringer with a compact one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %q: n=%d m=%d labels=%d", g.name, g.N(), g.M(), g.DistinctLabels())
}

// Clone returns a deep copy with the given name. Cloning is rarely needed
// (graphs are immutable) but supports renaming dataset entries.
func (g *Graph) Clone(name string) *Graph {
	h := &Graph{
		name:     name,
		labels:   append([]Label(nil), g.labels...),
		offsets:  append([]int32(nil), g.offsets...),
		nbrs:     append([]int32(nil), g.nbrs...),
		elabs:    append([]Label(nil), g.elabs...),
		m:        g.m,
		maxLbl:   g.maxLbl,
		lblOrder: append([]int32(nil), g.lblOrder...),
		lblVals:  append([]Label(nil), g.lblVals...),
		lblStart: append([]int32(nil), g.lblStart...),
	}
	return h
}

// Equal reports whether g and h are identical as labeled graphs on the same
// vertex numbering (not mere isomorphism), including edge labels.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for v := range g.labels {
		if g.labels[v] != h.labels[v] {
			return false
		}
		ga, ha := g.Neighbors(v), h.Neighbors(v)
		if len(ga) != len(ha) {
			return false
		}
		gl, hl := g.EdgeLabels(v), h.EdgeLabels(v)
		for i := range ga {
			if ga[i] != ha[i] || gl[i] != hl[i] {
				return false
			}
		}
	}
	return true
}
