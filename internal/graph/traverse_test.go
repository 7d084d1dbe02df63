package graph

import (
	"math/rand"
	"testing"
)

// TestBFSBatches: every level of every batch of the range asked for is
// reported once, in order, and bit i of reached[v] is set exactly when v lies
// at that distance from source first+i — checked against one plain queue BFS
// per source, on sparse random graphs (disconnected, with isolated vertices)
// whose sizes straddle the 64-source batch, over the whole range, a range
// that skips the first batch and ranges of one batch.
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
			batches := (n + 63) / 64
			for _, span := range [][2]int{{0, batches}, {1, batches}, {0, 1}, {batches - 1, batches}} {
				lo, hi := max(span[0], 0), min(span[1], batches)
				calls := 0
				g.BFSBatches(lo, hi, depth, func(first, d int, reached []uint64) {
					if wantFirst, wantD := (lo+calls/depth)*64, calls%depth+1; first != wantFirst || d != wantD {
						t.Fatalf("n=%d depth=%d batches [%d, %d): call %d is (first %d, level %d), want (%d, %d)", n, depth, lo, hi, calls, first, d, wantFirst, wantD)
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
				if want := max(hi-lo, 0) * depth; calls != want {
					t.Errorf("n=%d depth=%d batches [%d, %d): %d level calls, want %d", n, depth, lo, hi, calls, want)
				}
			}
		}
	}
}
