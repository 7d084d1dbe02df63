package index_test

// Cross-index parity: the three names (flat path-based FTV, Grapes, GGSX)
// are one index under three verifiers, so on any dataset
//
//   - every Filter result must be a superset of the true answer set (the
//     no-false-negatives guarantee verification relies on), and
//   - the full Answer pipeline must return byte-identical ascending IDs
//     for all three — and match brute-force VF2 over the whole dataset.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/vf2"
)

// buildAll constructs every registered index kind over ds with the given
// extraction pool.
func buildAll(t *testing.T, ds []*graph.Graph, maxLen int, pool *exec.Pool) []index.Index {
	t.Helper()
	var out []index.Index
	for _, kind := range index.Kinds() {
		x, err := index.Build(context.Background(), kind, ds, 1, index.Options{MaxPathLen: maxLen, Pool: pool})
		if err != nil {
			t.Fatalf("build %s: %v", kind, err)
		}
		out = append(out, x)
	}
	if len(out) < 3 {
		t.Fatalf("only %d kinds registered, want ftv+grapes+ggsx", len(out))
	}
	return out
}

// trueAnswers is the brute-force ground truth: VF2 against every graph.
func trueAnswers(t *testing.T, ds []*graph.Graph, q *graph.Graph) []int {
	t.Helper()
	var want []int
	for id, g := range ds {
		embs, err := vf2.Match(context.Background(), q, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) > 0 {
			want = append(want, id)
		}
	}
	return want
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

// extractQuery grows a connected query of wantEdges edges from a random
// vertex of g.
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

func isSuperset(sup, sub []int) bool {
	set := make(map[int]bool, len(sup))
	for _, id := range sup {
		set[id] = true
	}
	for _, id := range sub {
		if !set[id] {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCrossIndexParity asserts, over generated datasets and queries, that
// every index's Filter is a superset of the true answer set and that the
// Answer pipelines agree byte-for-byte with brute force: the index of each
// name, and the one table of every non-empty name set at K = 1 and 2 under
// each verifier the set selects.
func TestCrossIndexParity(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 5, 10+r.Intn(5), 3)
		xs := append(buildAll(t, ds, 3, pool), verifierViews(t, ds, 3, pool)...)
		for qi := 0; qi < 3; qi++ {
			q := extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(4))
			checkParity(t, fmt.Sprintf("seed %d q%d", seed, qi), ds, xs, q, pool)
		}
		closeAll(xs)
	}
	// A query vertex on no path feature (A–B + isolated C): the filter keeps
	// the graph on the edge alone, and Grapes' locations say nothing about
	// where C may go.
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}})
	for name, g := range map[string]*graph.Graph{
		"A-B, C":   graph.MustNew("g", []graph.Label{0, 1, 2}, [][2]int{{0, 1}}),
		"A-B, C-D": graph.MustNew("g", []graph.Label{0, 1, 2, 3}, [][2]int{{0, 1}, {2, 3}}),
	} {
		ds := []*graph.Graph{g, graph.MustNew("other", []graph.Label{0, 1}, [][2]int{{0, 1}})}
		xs := buildAll(t, ds, 3, pool)
		checkParity(t, name, ds, xs, q, pool)
		closeAll(xs)
	}
}

// verifierViews builds, for every non-empty set of names and K in {1, 2},
// the set's one table per shard and returns it under each verifier the set
// selects.
func verifierViews(t *testing.T, ds []*graph.Graph, maxLen int, pool *exec.Pool) []index.Index {
	t.Helper()
	kinds := index.Kinds()
	var out []index.Index
	for mask := 1; mask < 1<<len(kinds); mask++ {
		var set []string
		for i, kind := range kinds {
			if mask>>i&1 == 1 {
				set = append(set, kind)
			}
		}
		opts := index.Options{MaxPathLen: maxLen, Pool: pool}
		vs, err := index.Verifiers(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2} {
			tables, err := index.BuildTables(context.Background(), index.TableKind(set), ds, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := index.NewShardedFrom(ds, nil, tables, vs[0])
			for _, v := range vs {
				out = append(out, x.Using(v))
			}
		}
	}
	return out
}

// checkParity holds every index to the brute-force answer for one query:
// Filter keeps every true answer, and the sequential and the streaming
// pipeline both return exactly the true answers.
func checkParity(t *testing.T, tag string, ds []*graph.Graph, xs []index.Index, q *graph.Graph, pool *exec.Pool) {
	t.Helper()
	want := trueAnswers(t, ds, q)
	for _, x := range xs {
		cands := x.Filter(q)
		if !isSuperset(cands, want) {
			t.Fatalf("%s: %s Filter %v misses true answers %v", tag, x.Name(), cands, want)
		}
		got, err := index.SequentialAnswer(context.Background(), x, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(got, want) {
			t.Fatalf("%s: %s Answer = %v, want %v", tag, x.Name(), got, want)
		}
		streamed, err := index.Answer(context.Background(), x, q, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(streamed, want) {
			t.Fatalf("%s: %s streaming Answer = %v, want %v", tag, x.Name(), streamed, want)
		}
	}
}

func closeAll(xs []index.Index) {
	for _, x := range xs {
		x.Close()
	}
}

// TestBuildDeterminismAcrossWorkerCounts is the acceptance check that a
// build's output does not depend on the pool it ran on: the same dataset is
// built on pools of 1, 2 and 8 workers, unsharded and three-way sharded, and
// every kind's every shard must export the same features, postings and
// locations. Large and tiny graphs alternate, so that a slot, a row or a row
// length left over in the scratch a worker carries from graph to graph would
// show in the smaller graph's features; on the 1-worker pool every graph
// meets the same scratch, and the folds, which queue on that pool too, must
// not deadlock it.
func TestBuildDeterminismAcrossWorkerCounts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	big := func() *graph.Graph { return randomDataset(r, 1, 300, 3)[0] }
	ds := []*graph.Graph{
		big(), graph.MustNew("one", []graph.Label{1}, nil), graph.MustNew("edgeless", []graph.Label{0, 2, 2}, nil), big(),
		randomDataset(r, 1, 14, 3)[0], graph.MustNew("one", []graph.Label{0}, nil), big(), graph.MustNew("edgeless", make([]graph.Label, 70), nil),
	}
	want := map[int][][][]index.ExportedFeature{} // by K: the 1-worker build's exports, by kind and shard
	for _, workers := range []int{1, 2, 8} {
		pool := exec.New(workers)
		defer pool.Close()
		for _, k := range []int{1, 3} {
			got := make([][][]index.ExportedFeature, len(index.Kinds()))
			for i, kind := range index.Kinds() {
				tables, err := index.BuildTables(context.Background(), kind, ds, k, index.Options{MaxPathLen: 4, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range tables {
					got[i] = append(got[i], index.Export(x))
				}
			}
			if workers == 1 {
				want[k] = got
			}
			for i, kind := range index.Kinds() {
				if !reflect.DeepEqual(got[i], want[k][i]) {
					t.Errorf("%s K=%d: the export on %d workers differs from the 1-worker build's", kind, k, workers)
				}
			}
		}
	}
	pool1 := exec.New(1)
	defer pool1.Close()
	xs1 := buildAll(t, ds, 4, pool1)
	defer closeAll(xs1)
	var queries []*graph.Graph
	for qi := 0; qi < 6; qi++ {
		queries = append(queries, extractQuery(r, ds[[]int{0, 3, 4, 6}[r.Intn(4)]], 2+r.Intn(4)))
	}
	queries = append(queries, graph.MustNew("edgeless", []graph.Label{0}, nil))
	// Grapes' paper-facing worker knob must not change filtering either.
	g1 := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 1})
	g4 := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 4})
	for qi, q := range queries {
		if f1, f4 := g1.Filter(q), g4.Filter(q); !sameInts(f1, f4) {
			t.Errorf("Grapes workers 1 vs 4 q%d: Filter %v vs %v", qi, f1, f4)
		}
	}
	// GGSX is the flat path index under another name: it filters alike.
	for qi, q := range queries {
		want := xs1[indexOfKind(t, index.KindPath)].Filter(q)
		if got := xs1[indexOfKind(t, index.KindGGSX)].Filter(q); !sameInts(got, want) {
			t.Errorf("GGSX vs FTV q%d: %v vs %v", qi, got, want)
		}
	}
}

// TestGrapesFanOutOnOneWorker: Grapes/4 fans a candidate's components out on
// the pool it was built with, from inside the pipeline's verification task.
// On a 1-worker pool that task holds the only worker, so the fan-out runs on
// the verifying goroutine, and it answers TestBuildDeterminismAcrossWorkerCounts'
// dataset and queries as Grapes/1 does.
func TestGrapesFanOutOnOneWorker(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	big := func() *graph.Graph { return randomDataset(r, 1, 300, 3)[0] }
	ds := []*graph.Graph{
		big(), graph.MustNew("one", []graph.Label{1}, nil), graph.MustNew("edgeless", []graph.Label{0, 2, 2}, nil), big(),
		randomDataset(r, 1, 14, 3)[0], graph.MustNew("one", []graph.Label{0}, nil), big(), graph.MustNew("edgeless", make([]graph.Label, 70), nil),
	}
	queries := []*graph.Graph{graph.MustNew("edgeless", []graph.Label{0}, nil)}
	for qi := 0; qi < 6; qi++ {
		queries = append(queries, extractQuery(r, ds[[]int{0, 3, 4, 6}[r.Intn(4)]], 2+r.Intn(4)))
	}
	pool := exec.New(1)
	defer pool.Close()
	g1 := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 1, Pool: pool})
	g4 := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 4, Pool: pool})
	for qi, q := range queries {
		want, err := index.Answer(context.Background(), g1, q, pool)
		if err != nil {
			t.Fatal(err)
		}
		got, err := index.Answer(context.Background(), g4, q, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(got, want) {
			t.Errorf("q%d: Grapes/4 on one worker answered %v, Grapes/1 %v", qi, got, want)
		}
	}
}

// TestFilterNoFalseNegatives: for every kind, the graph a query was cut from
// survives the filter.
func TestFilterNoFalseNegatives(t *testing.T) {
	for _, kind := range index.Kinds() {
		t.Run(kind, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				ds := randomDataset(r, 5, 12, 3)
				x, err := index.Build(context.Background(), kind, ds, 1, index.Options{MaxPathLen: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer x.Close()
				src := r.Intn(len(ds))
				q := extractQuery(r, ds[src], 2+r.Intn(5))
				return slices.Contains(x.Filter(q), src)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAnswerMatchesBruteForce: for every kind, the filter→verify answer is
// exactly the graphs brute-force VF2 finds the query in.
func TestAnswerMatchesBruteForce(t *testing.T) {
	for _, kind := range index.Kinds() {
		t.Run(kind, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				ds := randomDataset(r, 5, 10, 3)
				x, err := index.Build(context.Background(), kind, ds, 1, index.Options{MaxPathLen: 3})
				if err != nil {
					t.Fatal(err)
				}
				defer x.Close()
				q := extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(3))
				got, err := index.SequentialAnswer(context.Background(), x, q)
				return err == nil && sameInts(got, trueAnswers(t, ds, q))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// indexOfKind maps a registered kind to its position in buildAll's output
// (Kinds() is sorted).
func indexOfKind(t *testing.T, kind string) int {
	t.Helper()
	for i, k := range index.Kinds() {
		if k == kind {
			return i
		}
	}
	t.Fatalf("kind %q not registered", kind)
	return -1
}

// TestVerifyAllocs: no kind keeps a matcher per graph — a VF2 matcher is its
// stored graph — and building one per call costs Verify nothing: it allocates
// no more than a search through a matcher built beforehand, on graphs that
// hold the query and on one that does not. At two shards Verify routes each
// ID to its shard's table, as an engine's verification does, and that
// translation costs nothing either.
func TestVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("Grapes verifies from a sync.Pool, which the race detector empties at random")
	}
	r := rand.New(rand.NewSource(3))
	ds := randomDataset(r, 4, 12, 3)
	q := extractQuery(r, ds[2], 3)
	ctx := context.Background()
	for _, kind := range index.Kinds() {
		for _, k := range []int{1, 2} {
			x, err := index.Build(ctx, kind, ds, k, index.Options{MaxPathLen: 3})
			if err != nil {
				t.Fatal(err)
			}
			outcomes := map[bool]bool{}
			for id, g := range ds {
				m := vf2.New(g)
				found, err := x.Verify(ctx, q, id)
				if err != nil {
					t.Fatal(err)
				}
				outcomes[found] = true
				verify := testing.AllocsPerRun(50, func() { x.Verify(ctx, q, id) })
				prebuilt := testing.AllocsPerRun(50, func() { m.Contains(ctx, q) })
				if verify > prebuilt {
					t.Errorf("%s K=%d graph %d: Verify makes %.0f allocations, a prebuilt matcher's search %.0f", kind, k, id, verify, prebuilt)
				}
			}
			if len(outcomes) != 2 {
				t.Errorf("%s K=%d: the query is verified %v on every graph; want both outcomes", kind, k, outcomes)
			}
		}
	}
}

// TestVerifyRejectsOutOfRangeGraphID: a graph ID outside the dataset is an
// error from every kind's verification — over a table built or restored from
// exported features, through the index or the table — never a panic, and
// Grapes' CandidateVertices reports such a graph as failing the filter.
func TestVerifyRejectsOutOfRangeGraphID(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(5)), 4, 7, 2)
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	ctx := context.Background()
	for _, kind := range index.Kinds() {
		built := buildTable(t, kind, ds, index.Options{MaxPathLen: 3})
		restored, err := index.Restore(kind, ds, built.MaxPathLen(), index.Options{}, index.Export(built))
		if err != nil {
			t.Fatal(err)
		}
		v := verifier(t, kind)
		for _, tc := range []struct {
			name string
			x    *index.Path
		}{{"built", built}, {"restored", restored}} {
			x := view(t, kind, tc.x)
			for _, id := range []int{-1, len(ds), len(ds) + 100} {
				if ok, err := x.Verify(ctx, q, id); err == nil || ok {
					t.Errorf("%s %s: Verify(graph %d) = %v, %v; want an out-of-range error", kind, tc.name, id, ok, err)
				}
				if ok, err := tc.x.VerifyWith(ctx, v, q, id); err == nil || ok {
					t.Errorf("%s %s: the table's VerifyWith(graph %d) = %v, %v; want an out-of-range error", kind, tc.name, id, ok, err)
				}
				if kind == index.KindGrapes {
					if vs, ok := tc.x.CandidateVertices(q, id); ok || vs != nil {
						t.Errorf("grapes %s: CandidateVertices(graph %d) = %v, %v; want nil, false", tc.name, id, vs, ok)
					}
				}
			}
			if _, err := x.Verify(ctx, q, len(ds)-1); err != nil {
				t.Errorf("%s %s: Verify(last graph): %v", kind, tc.name, err)
			}
		}
	}
}
