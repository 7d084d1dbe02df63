package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestWalkPathsThreadsState: every DFS node is visited once with the state
// its parent node returned, so a state that numbers the nodes lets the test
// rebuild each path from the parent links alone — and the paths of two or
// more vertices are exactly EnumeratePaths', in the same order.
func TestWalkPathsThreadsState(t *testing.T) {
	g := MustNew("g", []Label{0, 1, 2, 1}, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	var plain [][]int32
	g.EnumeratePaths(3, func(p []int32) {
		plain = append(plain, slices.Clone(p))
	})

	const root = -1
	var (
		parentOf []int32 // per node, in visit order
		lastOf   []int32
		walked   [][]int32
	)
	g.WalkPaths(3, root, func(parent int32, p []int32) (int32, bool) {
		if (parent == root) != (len(p) == 1) {
			t.Fatalf("path %v visited with parent state %d", p, parent)
		}
		parentOf = append(parentOf, parent)
		lastOf = append(lastOf, p[len(p)-1])
		// The path is the chain of parent links, reversed.
		var chain []int32
		for at := int32(len(parentOf) - 1); at != root; at = parentOf[at] {
			chain = append(chain, lastOf[at])
		}
		slices.Reverse(chain)
		if !slices.Equal(chain, p) {
			t.Fatalf("parent links spell %v, visit passed %v", chain, p)
		}
		if len(p) > 1 {
			walked = append(walked, slices.Clone(p))
		}
		return int32(len(parentOf) - 1), true
	})
	if len(walked) != len(plain) {
		t.Fatalf("EnumeratePaths saw %d paths, WalkPaths %d", len(plain), len(walked))
	}
	for i := range plain {
		if !slices.Equal(plain[i], walked[i]) {
			t.Fatalf("path %d differs: %v vs %v", i, plain[i], walked[i])
		}
	}
}

// TestWalkPathsStops: returning false abandons the walk immediately — no
// further visits anywhere, including other start vertices — whether the
// stop comes at a start vertex, an inner node or a leaf.
func TestWalkPathsStops(t *testing.T) {
	g := MustNew("g", []Label{0, 1, 2, 1}, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	total := 0
	g.WalkPaths(3, 0, func(int32, []int32) (int32, bool) {
		total++
		return 0, true
	})
	if total < 10 {
		t.Fatalf("fixture too small: %d nodes", total)
	}
	for stopAt := 1; stopAt <= total; stopAt++ {
		visits := 0
		g.WalkPaths(3, 0, func(int32, []int32) (int32, bool) {
			visits++
			return 0, visits < stopAt
		})
		if visits != stopAt {
			t.Errorf("stopAt=%d: %d visits", stopAt, visits)
		}
	}
}

// TestBFSBatches: every level of every batch is reported once, in order, and
// bit i of reached[v] is set exactly when v lies at that distance from source
// first+i — checked against one plain queue BFS per source, on sparse random
// graphs (disconnected, with isolated vertices) whose sizes straddle the
// 64-source batch.
func TestBFSBatches(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 24, 63, 64, 65, 130} {
		for depth := 1; depth <= 5; depth++ {
			g := randomGraph(r, n, 1.5/float64(n+1), 3)
			dist := make([][]int, n) // dist[src][v], -1 if beyond depth
			for src := range dist {
				d := make([]int, n)
				for v := range d {
					d[v] = -1
				}
				d[src] = 0
				for queue := []int32{int32(src)}; len(queue) > 0; queue = queue[1:] {
					v := queue[0]
					if d[v] == depth {
						continue
					}
					for _, w := range g.Neighbors(int(v)) {
						if d[w] < 0 {
							d[w] = d[v] + 1
							queue = append(queue, w)
						}
					}
				}
				dist[src] = d
			}
			calls := 0
			g.BFSBatches(depth, func(first, d int, reached []uint64) {
				if wantFirst, wantD := calls/depth*64, calls%depth+1; first != wantFirst || d != wantD {
					t.Fatalf("n=%d depth=%d: call %d is (first %d, level %d), want (%d, %d)", n, depth, calls, first, d, wantFirst, wantD)
				}
				calls++
				for v, bits := range reached {
					for i := 0; i < 64; i++ {
						want := first+i < n && dist[first+i][v] == d
						if got := bits>>i&1 == 1; got != want {
							t.Fatalf("n=%d depth=%d: source %d reaches %d at level %d: got %v, want %v", n, depth, first+i, v, d, got, want)
						}
					}
				}
			})
			if want := (n + 63) / 64 * depth; calls != want {
				t.Errorf("n=%d depth=%d: %d level calls, want %d", n, depth, calls, want)
			}
		}
	}
}
