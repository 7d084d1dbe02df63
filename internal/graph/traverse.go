package graph

import "slices"

// BFSBatches runs a breadth-first search bounded to maxDepth levels from
// the sources of batches lo..hi-1 of g, 64 sources per batch: one machine
// word per vertex holds the batch's sources that have reached it, so a level
// of all 64 searches is one sweep over the frontier's adjacency instead of
// 64. Batch b's sources are vertices 64b..64b+63 (the last batch, b =
// ⌈n/64⌉−1, may be partial); source first+i is bit i. Batches are
// independent, so disjoint ranges may run concurrently, each call with its
// own scratch.
//
// After each level d = 1..maxDepth of each batch, level(first, d, reached)
// is called with reached[v] holding bit i iff v lies at distance exactly d
// from source first+i. Every level of every batch is reported, empty ones
// included; batches come in ascending order of first, levels in ascending
// order within a batch. reached is reused: level must not retain it.
func (g *Graph) BFSBatches(lo, hi, maxDepth int, level func(first, depth int, reached []uint64)) {
	n := g.N()
	seen := make([]uint64, n)
	frontier := make([]uint64, n)
	next := make([]uint64, n)
	for first := 64 * lo; first < min(n, 64*hi); first += 64 {
		clear(seen)
		clear(frontier)
		for i := 0; i < 64 && first+i < n; i++ {
			seen[first+i] = 1 << i
			frontier[first+i] = 1 << i
		}
		for d := 1; d <= maxDepth; d++ {
			clear(next)
			for v, f := range frontier {
				if f != 0 {
					for _, w := range g.Neighbors(v) {
						next[w] |= f
					}
				}
			}
			for v, s := range seen {
				next[v] &^= s
				seen[v] = s | next[v]
			}
			level(first, d, next)
			frontier, next = next, frontier
		}
	}
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending, in order of their smallest vertex.
func (g *Graph) ConnectedComponents() [][]int32 {
	seen := make([]bool, g.N())
	var comps [][]int32
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int32
		stack := []int32{int32(s)}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range g.Neighbors(int(v)) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph counts as connected).
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	return len(g.ConnectedComponents()) == 1
}

// EnumeratePaths performs a DFS from every vertex and invokes visit once per
// simple path of 1..maxEdges edges, passing the vertex sequence. The slice
// passed to visit is reused across calls; callers must copy it if retained.
// It is the plain form of the path search Grapes and GGSX index by (§3.1.1:
// paths are searched in a DFS manner up to a maximum length), which tests hold
// the feature extractor's own DFS (internal/ftv) against.
func (g *Graph) EnumeratePaths(maxEdges int, visit func(path []int32)) {
	onPath := make([]bool, g.N())
	path := make([]int32, 0, maxEdges+1)
	var extend func(v int32)
	extend = func(v int32) {
		path = append(path, v)
		if len(path) > 1 {
			visit(path)
		}
		if len(path) <= maxEdges {
			onPath[v] = true
			for _, u := range g.Neighbors(int(v)) {
				if !onPath[u] {
					extend(u)
				}
			}
			onPath[v] = false
		}
		path = path[:len(path)-1]
	}
	for v := 0; v < g.N(); v++ {
		extend(int32(v))
	}
}
