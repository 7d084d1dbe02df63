package spath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

// Property: for random queries, the shortest-path decomposition (i) covers
// every query edge, (ii) uses only real edges, (iii) respects the length
// cap, and (iv) mentions every vertex (including isolated ones).
func TestDecomposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := sparseGraph(r, 2+r.Intn(14), 2, []graph.Label{0, 1, 2})
		paths := decompose(q, DefaultMaxPathLen)
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
