package spath

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/workload"
)

// oracleSignature is the map-based per-vertex BFS the index was first built
// with, kept as the oracle: sig[d-1] maps label -> number of vertices with
// that label within distance 1..d of v.
func oracleSignature(g *graph.Graph, v, radius int) []map[graph.Label]int32 {
	dist := map[int32]int{int32(v): 0}
	for queue := []int32{int32(v)}; len(queue) > 0; queue = queue[1:] {
		x := queue[0]
		if dist[x] == radius {
			continue
		}
		for _, w := range g.Neighbors(int(x)) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[x] + 1
				queue = append(queue, w)
			}
		}
	}
	sig := make([]map[graph.Label]int32, radius)
	for d := range sig {
		sig[d] = make(map[graph.Label]int32)
	}
	for w, d := range dist {
		for k := max(d, 1); d >= 1 && k <= radius; k++ {
			sig[k-1][g.Label(int(w))]++
		}
	}
	return sig
}

// checkAgainstOracle compares every row of buildSignatures(g, radius) with
// the oracle's map: same labels, same counts, labels strictly ascending.
func checkAgainstOracle(t *testing.T, g *graph.Graph, radius int) {
	t.Helper()
	sig := buildSignatures(g, radius)
	if want := g.N()*radius + 1; len(sig.off) != want {
		t.Fatalf("n=%d radius=%d: %d offsets, want %d", g.N(), radius, len(sig.off), want)
	}
	for v := 0; v < g.N(); v++ {
		want := oracleSignature(g, v, radius)
		for d := 0; d < radius; d++ {
			row := sig.row(v, d)
			if len(row) != len(want[d]) {
				t.Fatalf("n=%d radius=%d: row(%d, %d) = %v, oracle %v", g.N(), radius, v, d, row, want[d])
			}
			for i, e := range row {
				if i > 0 && row[i-1].label >= e.label {
					t.Fatalf("n=%d radius=%d: row(%d, %d) not sorted: %v", g.N(), radius, v, d, row)
				}
				if want[d][e.label] != e.count {
					t.Fatalf("n=%d radius=%d: row(%d, %d) = %v, oracle %v", g.N(), radius, v, d, row, want[d])
				}
			}
		}
	}
}

// sparseGraph draws n vertices with labels from alphabet and about
// n*degree/2 random edges: at degree 1.5 it is disconnected and has isolated
// vertices.
func sparseGraph(r *rand.Rand, n int, degree float64, alphabet []graph.Label) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("g%d", n))
	for i := 0; i < n; i++ {
		b.AddVertex(alphabet[r.Intn(len(alphabet))])
	}
	for i := 0; n > 1 && i < int(float64(n)*degree/2); i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdgePending(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return b.MustBuild()
}

// TestSignaturesAgainstOracle: the batched build equals the per-vertex
// oracle on graphs whose sizes straddle the 64-source batch, sparse
// (disconnected, isolated vertices) and dense (everything within radius),
// over labels that straddle 4095 and reach 2^20; n=24 is the query-sized
// case, one partial batch.
func TestSignaturesAgainstOracle(t *testing.T) {
	alphabet := []graph.Label{0, 1, 4094, 4095, 4096, 1 << 20}
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 24, 63, 64, 65, 130} {
		for radius := 1; radius <= 5; radius++ {
			for _, degree := range []float64{1.5, 6} {
				checkAgainstOracle(t, sparseGraph(r, n, degree, alphabet), radius)
			}
		}
	}
}

// TestSignatureScratchNotLabelSized: with labels at 2^20 the build allocates
// what the rows need, not a table over 0..MaxLabel (4 MB for one int32 per
// label).
func TestSignatureScratchNotLabelSized(t *testing.T) {
	g := sparseGraph(rand.New(rand.NewSource(3)), 130, 3, []graph.Label{1 << 20, 1<<20 - 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sig := buildSignatures(g, DefaultRadius)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("build allocated %d bytes for %d entries", got, len(sig.rows))
	}
}

// TestCandidatesKeepEveryEmbedding is the filter's soundness: on random
// stored graphs, for queries extracted from them (so at least the planted
// embedding exists), every image of every embedding the reference matcher
// finds survives the candidate filter.
func TestCandidatesKeepEveryEmbedding(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(5))
	for round := 0; round < 12; round++ {
		g := sparseGraph(r, 30+r.Intn(40), 2+2*r.Float64(), []graph.Label{0, 1, 2, 3, 4, 5})
		m := New(g)
		for _, wq := range workload.GenerateSingle(g, []int{3, 5, 7}, 4, int64(round)) {
			q := wq.Graph
			embs, err := match.NewReference(g).Match(ctx, q, 50)
			if err != nil {
				t.Fatal(err)
			}
			if len(embs) == 0 {
				t.Fatalf("round %d: extracted query %s has no embedding", round, q.Name())
			}
			cand, err := m.candidates(q, match.NewBudget(ctx))
			if err != nil {
				t.Fatal(err)
			}
			if cand == nil {
				t.Fatalf("round %d: filter emptied a candidate set of a contained query", round)
			}
			for _, emb := range embs {
				for u, v := range emb {
					if !cand[u].Has(v) {
						t.Fatalf("round %d: embedding %v maps %d to %d, which the filter pruned", round, emb, u, v)
					}
				}
			}
		}
	}
}

// TestConcurrentQueries drives one Matcher from 8 goroutines (run under
// -race by scripts/check.sh): every goroutine gets the sequential answers,
// in the same order.
func TestConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	g := sparseGraph(rand.New(rand.NewSource(9)), 200, 4, []graph.Label{0, 1, 2})
	m := New(g)
	queries := workload.GenerateSingle(g, []int{4, 8}, 6, 1)
	want := make([][]match.Embedding, len(queries))
	for i, wq := range queries {
		embs, err := m.Match(ctx, wq.Graph, 100)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = embs
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, wq := range queries {
				got, err := m.Match(ctx, wq.Graph, 100)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.EqualFunc(got, want[i], func(a, b match.Embedding) bool { return slices.Equal(a, b) }) {
					t.Errorf("query %d: concurrent answer differs from sequential", i)
				}
			}
		}()
	}
	wg.Wait()
}
