package live_test

// The indexes keep every undirected label path once, under its oriented
// spelling, and fold a query's two spellings of a path into one requirement.
// This file holds them to the filter that knows nothing of that: count every
// path of every graph under the spelling it is walked in, count the query's
// maximal paths the same way, and keep a graph iff it has each of the query's
// spellings at least as often as the query. The candidates must be equal —
// for every kind, at every shard count, however the index came to be: built,
// grown by WithGraph, holding tombstones, compacted, or restored from
// exported features.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
)

// spellingCounts counts the paths visit is called with by label sequence, as
// walked.
func spellingCounts(g *graph.Graph, walk func(visit func(path []int32))) map[string]int {
	counts := map[string]int{}
	walk(func(path []int32) {
		labels := make([]graph.Label, len(path))
		for i, v := range path {
			labels[i] = g.Label(int(v))
		}
		counts[fmt.Sprint(labels)]++
	})
	return counts
}

// maximalPaths visits the DFS paths of q, from every start vertex, that
// cannot be extended: of maxLen edges, or with every neighbour of the last
// vertex already on the path. Its own DFS, sharing nothing with the code
// under test.
func maximalPaths(q *graph.Graph, maxLen int, visit func(path []int32)) {
	var path []int32
	var dfs func(v int32)
	dfs = func(v int32) {
		path = append(path, v)
		extended := false
		if len(path) <= maxLen {
			for _, w := range q.Neighbors(int(v)) {
				onPath := false
				for _, u := range path {
					onPath = onPath || u == w
				}
				if !onPath {
					extended = true
					dfs(w)
				}
			}
		}
		if !extended && len(path) > 1 {
			visit(path)
		}
		path = path[:len(path)-1]
	}
	for v := 0; v < q.N(); v++ {
		dfs(int32(v))
	}
}

// bothSpellingsFilter is the reference filter.
func bothSpellingsFilter(ds []*graph.Graph, q *graph.Graph, maxLen int) []int {
	need := spellingCounts(q, func(visit func([]int32)) { maximalPaths(q, maxLen, visit) })
	var out []int
	for id, g := range ds {
		have := spellingCounts(g, func(visit func([]int32)) { g.EnumeratePaths(maxLen, visit) })
		ok := true
		for spelling, n := range need {
			ok = ok && have[spelling] >= n
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

func TestCandidatesMatchBothSpellingsFilter(t *testing.T) {
	const maxLen = 4
	kinds := []string{index.KindPath, "grapes", "ggsx"}
	r := rand.New(rand.NewSource(16))
	pool := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 10, AvgNodes: 14, NodeSpread: 5, Density: 0.2, Labels: 3}, 16)
	pool = append(pool, gen.PPI(gen.PPIConfig{NumGraphs: 6, AvgNodes: 16, NodeSpread: 4, AvgDegree: 3, Labels: 4, LabelsPer: 3, IsolatedPct: 0.1}, 17)...)
	pool = append(pool,
		graph.MustNew("edge", []graph.Label{1, 0}, [][2]int{{0, 1}}),
		graph.MustNew("palindrome", []graph.Label{0, 1, 2, 1, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		graph.MustNew("one-label", []graph.Label{1, 1, 1, 1}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		graph.MustNew("isolated", []graph.Label{0, 1, 2, 0}, [][2]int{{0, 1}}),
		graph.MustNew("edgeless", []graph.Label{0, 1}, nil),
	)
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	initial, later := pool[:len(pool)-4], pool[len(pool)-4:]

	queries := []*graph.Graph{
		// A star walks 0-1 twice from the centre and 1-0 never; a
		// caterpillar and a triangle with a tail are lopsided other ways.
		graph.MustNew("star", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}}),
		graph.MustNew("star3", []graph.Label{1, 0, 0, 2}, [][2]int{{0, 1}, {0, 2}, {0, 3}}),
		graph.MustNew("caterpillar", []graph.Label{0, 1, 2, 1, 0}, [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}}),
		graph.MustNew("tailed-triangle", []graph.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}),
		graph.MustNew("palindrome", []graph.Label{1, 0, 1}, [][2]int{{0, 1}, {1, 2}}),
		graph.MustNew("descending", []graph.Label{2, 1, 0}, [][2]int{{0, 1}, {1, 2}}),
		graph.MustNew("same", []graph.Label{1, 1}, [][2]int{{0, 1}}),
		graph.MustNew("with-isolated", []graph.Label{1, 0, 2}, [][2]int{{0, 1}}),
		graph.MustNew("absent-label", []graph.Label{0, 9}, [][2]int{{0, 1}}),
		graph.MustNew("edgeless", []graph.Label{0}, nil),
	}
	for _, g := range pool[:6] {
		if g.M() >= 4 {
			queries = append(queries, walkQuery(r, g, 3+r.Intn(3)))
		}
	}

	check := func(t *testing.T, stage string, st *live.Store) {
		t.Helper()
		snap := st.Current()
		for _, q := range queries {
			want := bothSpellingsFilter(snap.Graphs(), q, maxLen)
			if got := snap.Table().Filter(q); !slices.Equal(got, want) {
				t.Errorf("%s, query %s: candidates %v, both-spellings filter %v", stage, q.Name(), got, want)
			}
		}
	}
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			ctx := context.Background()
			ixOpts := index.Options{MaxPathLen: maxLen}
			st := newStore(t, initial, live.Options{Kinds: kinds, Shards: k, CompactEvery: 2, Index: ixOpts})
			check(t, "built", st)
			var added []live.Handle
			for _, g := range later {
				h, err := st.Add(ctx, g)
				if err != nil {
					t.Fatal(err)
				}
				added = append(added, h)
			}
			check(t, "grown", st)
			// Handles 1.. are the initial graphs in order; shard s holds
			// those with (handle-1) mod K == s, so the first removal leaves
			// a tombstone in shard 0 and the second, K slots on, compacts it.
			if compacted, err := st.Remove(ctx, 1); err != nil || compacted {
				t.Fatalf("first removal: compacted=%v, err=%v", compacted, err)
			}
			check(t, "tombstoned", st)
			if compacted, err := st.Remove(ctx, live.Handle(1+k)); err != nil || !compacted {
				t.Fatalf("second removal in shard 0: compacted=%v, err=%v", compacted, err)
			}
			if _, err := st.Remove(ctx, added[0]); err != nil {
				t.Fatal(err)
			}
			check(t, "compacted", st)
			state := exportState(t, st)
			restored := restore(t, roundTripGrid(t, state), 2, ixOpts)
			check(t, "round-tripped", restored)
		})
	}
}

// walkQuery is the subgraph of g a random walk of the given number of steps
// covers.
func walkQuery(r *rand.Rand, g *graph.Graph, steps int) *graph.Graph {
	v := int32(r.Intn(g.N()))
	for g.Degree(int(v)) == 0 {
		v = int32(r.Intn(g.N()))
	}
	idOf := map[int32]int{v: 0}
	b := graph.NewBuilder("walk-of-" + g.Name())
	b.AddVertex(g.Label(int(v)))
	for ; steps > 0; steps-- {
		nbrs := g.Neighbors(int(v))
		w := nbrs[r.Intn(len(nbrs))]
		if _, seen := idOf[w]; !seen {
			idOf[w] = len(idOf)
			b.AddVertex(g.Label(int(w)))
		}
		if !b.HasEdgePending(idOf[v], idOf[w]) {
			if err := b.AddEdge(idOf[v], idOf[w]); err != nil {
				panic(err)
			}
		}
		v = w
	}
	return b.MustBuild()
}
