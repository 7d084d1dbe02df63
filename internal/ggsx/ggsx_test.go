package ggsx

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/vf2"
)

func smallDataset() []*graph.Graph {
	return []*graph.Graph{
		graph.MustNew("g0", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 0}}),
		graph.MustNew("g1", []graph.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		graph.MustNew("g2", []graph.Label{1, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}}),
	}
}

func TestBuildAndName(t *testing.T) {
	x := Build(smallDataset(), Options{})
	if x.Name() != "GGSX" {
		t.Errorf("Name = %q", x.Name())
	}
	if len(x.Dataset()) != 3 {
		t.Error("Dataset")
	}
	if x.MaxPathLen() != ftv.DefaultMaxPathLen {
		t.Errorf("MaxPathLen = %d", x.MaxPathLen())
	}
}

func TestLookupCounts(t *testing.T) {
	x := Build(smallDataset(), Options{})
	// g0: edge 0(0)-1(1) one occurrence of (0,1); g1 same; g2: center label
	// 1 is vertex 0, leaves label 0: path (0,1) = leaf->center occurs 3×.
	var got [][2]int32
	for c := x.lookup([]graph.Label{0, 1}).Cursor(); c.Next(); {
		got = append(got, [2]int32{c.Graph(), c.Count()})
	}
	if want := [][2]int32{{0, 1}, {1, 1}, {2, 3}}; !slices.Equal(got, want) {
		t.Errorf("counts(0,1) = %v, want %v", got, want)
	}
	if x.lookup([]graph.Label{42}).Len() != 0 {
		t.Error("unknown label should have no postings")
	}
	if x.lookup([]graph.Label{1, 0}).Len() != 0 {
		t.Error("(1,0) is (0,1) read backwards and should have no postings of its own")
	}
}

func TestFilterPresenceAndFrequency(t *testing.T) {
	x := Build(smallDataset(), Options{})
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	got := x.Filter(q)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Filter = %v, want [0 1]", got)
	}
	// two 0-leaves on a 1-center: needs (0,1) at least twice
	q2 := graph.MustNew("q2", []graph.Label{1, 0, 0}, [][2]int{{0, 1}, {0, 2}})
	got2 := x.Filter(q2)
	if len(got2) != 1 || got2[0] != 2 {
		t.Errorf("Filter = %v, want [2]", got2)
	}
	// edgeless query: all graphs
	q3 := graph.MustNew("q3", []graph.Label{0}, nil)
	if got3 := x.Filter(q3); len(got3) != 3 {
		t.Errorf("Filter = %v, want all", got3)
	}
	// unknown label
	q4 := graph.MustNew("q4", []graph.Label{9, 9}, [][2]int{{0, 1}})
	if got4 := x.Filter(q4); len(got4) != 0 {
		t.Errorf("Filter = %v, want empty", got4)
	}
}

func TestVerify(t *testing.T) {
	x := Build(smallDataset(), Options{})
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	ok, err := x.Verify(context.Background(), q, 0)
	if err != nil || !ok {
		t.Errorf("Verify(g0) = %v, %v", ok, err)
	}
	ok, err = x.Verify(context.Background(), q, 2)
	if err != nil || ok {
		t.Errorf("Verify(g2) = %v, %v; q not contained", ok, err)
	}
}

func TestFilterNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 5, 12, 3)
		x := Build(ds, Options{MaxPathLen: 4})
		src := r.Intn(len(ds))
		q := extractQuery(r, ds[src], 2+r.Intn(5))
		for _, id := range x.Filter(q) {
			if id == src {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAnswerMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 5, 10, 3)
		x := Build(ds, Options{MaxPathLen: 3})
		q := extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(3))
		got, err := ftv.Answer(context.Background(), x, q)
		if err != nil {
			return false
		}
		var want []int
		for id, g := range ds {
			embs, err := vf2.Match(context.Background(), q, g, 1)
			if err != nil {
				return false
			}
			if len(embs) > 0 {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func randomDataset(r *rand.Rand, numGraphs, n, labels int) []*graph.Graph {
	ds := make([]*graph.Graph, numGraphs)
	for i := range ds {
		b := graph.NewBuilder("g")
		for v := 0; v < n; v++ {
			b.AddVertex(graph.Label(r.Intn(labels)))
		}
		for v := 1; v < n; v++ {
			if err := b.AddEdge(r.Intn(v), v); err != nil {
				panic(err)
			}
		}
		for e := 0; e < n/2; e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !b.HasEdgePending(u, v) {
				if err := b.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
		ds[i] = b.MustBuild()
	}
	return ds
}

func extractQuery(r *rand.Rand, g *graph.Graph, wantEdges int) *graph.Graph {
	start := r.Intn(g.N())
	inQ := map[int32]bool{int32(start): true}
	type edge struct{ u, v int32 }
	var qEdges []edge
	has := func(a, b int32) bool {
		for _, e := range qEdges {
			if (e.u == a && e.v == b) || (e.u == b && e.v == a) {
				return true
			}
		}
		return false
	}
	for len(qEdges) < wantEdges {
		var frontier []edge
		for v := range inQ {
			for _, w := range g.Neighbors(int(v)) {
				if !has(v, w) {
					frontier = append(frontier, edge{v, w})
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[r.Intn(len(frontier))]
		qEdges = append(qEdges, e)
		inQ[e.u] = true
		inQ[e.v] = true
	}
	ids := make([]int32, 0, len(inQ))
	for v := range inQ {
		ids = append(ids, v)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	old2new := make(map[int32]int, len(ids))
	b := graph.NewBuilder("q")
	for i, v := range ids {
		old2new[v] = i
		b.AddVertex(g.Label(int(v)))
	}
	for _, e := range qEdges {
		if err := b.AddEdge(old2new[e.u], old2new[e.v]); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}
