package quicksi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/graph"
)

// Property: for random stored graphs and random connected queries, the
// QuickSI plan is always a valid search sequence — every vertex exactly
// once, each parent placed earlier and adjacent, and one root.
func TestPlanInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraphQSI(r, 12+r.Intn(10), 3)
		m := New(g)
		q := randomGraphQSI(r, 3+r.Intn(6), 3)
		p := m.plan(q)
		if len(p.Order) != q.N() || len(p.Anchor) != q.N() {
			return false
		}
		pos := make(map[int32]int, q.N())
		roots := 0
		for i, u := range p.Order {
			if _, dup := pos[u]; dup {
				return false
			}
			pos[u] = i
			parent := p.Anchor[i]
			if parent < 0 {
				roots++
				continue
			}
			if at, ok := pos[parent]; !ok || at >= i || !q.HasEdge(int(u), int(parent)) {
				return false
			}
		}
		return roots == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the plan root of each component has the (weakly) rarest label
// among that component's unplaced vertices at selection time; in
// particular, the very first root is a globally rarest-label vertex.
func TestPlanRootIsRarestLabel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraphQSI(r, 20, 4)
		m := New(g)
		q := randomGraphQSI(r, 4+r.Intn(5), 4)
		root := m.plan(q).Order[0]
		rootFreq := m.lblFreq[q.Label(int(root))]
		for v := 0; v < q.N(); v++ {
			if m.lblFreq[q.Label(v)] < rootFreq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randomGraphQSI(r *rand.Rand, n, labels int) *graph.Graph {
	b := graph.NewBuilder("g")
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
	}
	for v := 1; v < n; v++ {
		if err := b.AddEdge(r.Intn(v), v); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n/2; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdgePending(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return b.MustBuild()
}
