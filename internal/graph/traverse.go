package graph

import "slices"

// BFSBatches runs a breadth-first search bounded to maxDepth levels from
// every vertex of g, 64 sources per batch: one machine word per vertex holds
// the batch's sources that have reached it, so a level of all 64 searches is
// one sweep over the frontier's adjacency instead of 64. Batch b's sources
// are vertices 64b..64b+63 (the last batch may be partial); source first+i
// is bit i.
//
// After each level d = 1..maxDepth of each batch, level(first, d, reached)
// is called with reached[v] holding bit i iff v lies at distance exactly d
// from source first+i. Every level of every batch is reported, empty ones
// included; batches come in ascending order of first, levels in ascending
// order within a batch. reached is reused: level must not retain it.
func (g *Graph) BFSBatches(maxDepth int, level func(first, depth int, reached []uint64)) {
	n := g.N()
	seen := make([]uint64, n)
	frontier := make([]uint64, n)
	next := make([]uint64, n)
	for first := 0; first < n; first += 64 {
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
// This is the feature-extraction primitive of Grapes and GGSX (§3.1.1: paths
// are searched in a DFS manner up to a maximum length).
func (g *Graph) EnumeratePaths(maxEdges int, visit func(path []int32)) {
	g.WalkPaths(maxEdges, 0, func(_ int32, path []int32) (int32, bool) {
		if len(path) > 1 {
			visit(path)
		}
		return 0, true
	})
}

// WalkPaths is the DFS behind EnumeratePaths with a caller-defined state
// threaded down the recursion. Every DFS node — a start vertex, or a simple
// path of 1..maxEdges edges grown from one — gets exactly one visit call,
// which receives the state its parent node returned (root for a start
// vertex) and the vertex sequence from the start vertex to the node, and
// returns the node's own state. A consumer that aggregates paths by some
// function of their vertices can therefore carry that function's value down
// incrementally, with O(1) work per path, instead of recomputing it from
// each completed path. Every call with len(path) >= 2 is one path
// occurrence; path is reused across calls. visit returning more=false
// abandons the walk immediately, which is what keeps a cancelled index
// build from finishing a potentially huge enumeration.
func (g *Graph) WalkPaths(maxEdges int, root int32, visit func(parent int32, path []int32) (state int32, more bool)) {
	w := pathWalker{
		g:        g,
		maxEdges: maxEdges,
		visit:    visit,
		onPath:   make([]bool, g.N()),
		path:     make([]int32, 0, maxEdges+1),
	}
	for v := 0; v < g.N(); v++ {
		if !w.descend(root, int32(v)) {
			return
		}
	}
}

// pathWalker is WalkPaths' DFS state.
type pathWalker struct {
	g        *Graph
	maxEdges int
	visit    func(parent int32, path []int32) (int32, bool)
	onPath   []bool
	path     []int32 // cap maxEdges+1: never reallocates
}

// descend steps onto v from a node whose state is parent and reports
// whether the walk goes on.
func (w *pathWalker) descend(parent, v int32) bool {
	depth := len(w.path)
	w.path = append(w.path, v)
	state, more := w.visit(parent, w.path)
	if more && depth < w.maxEdges {
		w.onPath[v] = true
		nbrs := w.g.Neighbors(int(v))
		if depth+1 == w.maxEdges {
			// The children are leaves, most of the walk's nodes: visit
			// them in place rather than through a call that would only
			// push, visit and pop.
			leaf := w.path[:depth+2]
			for _, u := range nbrs {
				if !w.onPath[u] {
					leaf[depth+1] = u
					if _, more = w.visit(state, leaf); !more {
						break
					}
				}
			}
		} else {
			for _, u := range nbrs {
				if !w.onPath[u] && !w.descend(state, u) {
					more = false
					break
				}
			}
		}
		w.onPath[v] = false
	}
	w.path = w.path[:depth]
	return more
}
