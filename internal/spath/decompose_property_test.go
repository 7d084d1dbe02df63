package spath

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

// Property: for random queries, sparse (disconnected, isolated vertices) to
// dense (mostly non-tree edges), the shortest-path decomposition (i) covers
// every query edge, (ii) uses only real edges, (iii) respects the length
// cap, (iv) mentions every vertex (including isolated ones), and (v) is the
// oracle's, path for path.
func TestDecomposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := sparseGraph(r, 2+r.Intn(14), []float64{1, 2, 5}[r.Intn(3)], []graph.Label{0, 1, 2})
		paths := decompose(q, DefaultMaxPathLen)
		if !reflect.DeepEqual(paths, decomposeOracle(q, DefaultMaxPathLen)) {
			return false
		}
		covered := make(map[[2]int32]bool)
		seenV := make(map[int32]bool)
		for _, p := range paths {
			if len(p)-1 > DefaultMaxPathLen {
				return false
			}
			for _, v := range p {
				seenV[v] = true
			}
			for i := 0; i+1 < len(p); i++ {
				a, b := p[i], p[i+1]
				if !q.HasEdge(int(a), int(b)) {
					return false
				}
				if a > b {
					a, b = b, a
				}
				covered[[2]int32{a, b}] = true
			}
		}
		if len(covered) != q.M() {
			return false
		}
		return len(seenV) == q.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// decomposeOracle is decompose as it was first written, with a map of covered
// edges and a map of leaves per component, kept as the oracle: decompose must
// return the same paths in the same order.
func decomposeOracle(q *graph.Graph, maxLen int) [][]int32 {
	n := q.N()
	visited := make([]bool, n)
	parent := make([]int32, n)
	var paths [][]int32
	covered := make(map[[2]int32]bool, q.M())
	cover := func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		covered[[2]int32{a, b}] = true
	}
	isCovered := func(a, b int32) bool {
		if a > b {
			a, b = b, a
		}
		return covered[[2]int32{a, b}]
	}
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		// BFS tree of this component.
		visited[root] = true
		parent[root] = -1
		queue := []int32{int32(root)}
		var order []int32
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range q.Neighbors(int(v)) {
				if !visited[w] {
					visited[w] = true
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
		// Children counts to find leaves.
		isLeaf := make(map[int32]bool, len(order))
		for _, v := range order {
			isLeaf[v] = true
		}
		for _, v := range order {
			if parent[v] >= 0 {
				isLeaf[parent[v]] = false
			}
		}
		// Root-to-leaf tree paths, chopped into ≤ maxLen segments.
		for _, v := range order {
			if !isLeaf[v] {
				continue
			}
			var rev []int32
			for x := v; x >= 0; x = parent[x] {
				rev = append(rev, x)
				if parent[x] < 0 {
					break
				}
			}
			// reverse to root..leaf
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			for start := 0; start+1 < len(rev); start += maxLen {
				end := start + maxLen
				if end >= len(rev) {
					end = len(rev) - 1
				}
				seg := rev[start : end+1]
				cp := make([]int32, len(seg))
				copy(cp, seg)
				paths = append(paths, cp)
				for i := 0; i+1 < len(cp); i++ {
					cover(cp[i], cp[i+1])
				}
			}
		}
		// Isolated vertex: single-vertex path so it still gets matched.
		if len(order) == 1 {
			paths = append(paths, []int32{order[0]})
		}
	}
	// Non-tree edges as 1-edge paths.
	q.Edges(func(a, b int) {
		if !isCovered(int32(a), int32(b)) {
			paths = append(paths, []int32{int32(a), int32(b)})
			cover(int32(a), int32(b))
		}
	})
	return paths
}

// Property: path ordering is by non-decreasing selectivity estimate
// (product of candidate-set sizes).
func TestOrderPathsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := sparseGraph(r, 3+r.Intn(10), 2, []graph.Label{0, 1, 2})
		paths := decompose(q, DefaultMaxPathLen)
		cand := match.NewVertexSets(q.N(), 5)
		for u := range cand {
			for k := 0; k < 1+r.Intn(5); k++ {
				cand[u].Add(int32(k))
			}
		}
		orderPaths(paths, cand)
		est := func(p []int32) float64 {
			e := 1.0
			for _, u := range p {
				e *= float64(cand[u].Len())
			}
			return e
		}
		for i := 1; i < len(paths); i++ {
			if est(paths[i]) < est(paths[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
