package grapes

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/leakcheck"
	"github.com/psi-graph/psi/internal/vf2"
)

func smallDataset() []*graph.Graph {
	return []*graph.Graph{
		// 0: triangle of labels 0,1,2
		graph.MustNew("g0", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 0}}),
		// 1: path 0-1-2-3 labels 0,1,2,0
		graph.MustNew("g1", []graph.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		// 2: star center 1 with three 0-leaves
		graph.MustNew("g2", []graph.Label{1, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}}),
	}
}

func TestBuildAndName(t *testing.T) {
	x := Build(smallDataset(), Options{Workers: 4})
	if x.Name() != "Grapes/4" {
		t.Errorf("Name = %q", x.Name())
	}
	if len(x.Dataset()) != 3 {
		t.Error("Dataset")
	}
	if x.MaxPathLen() != ftv.DefaultMaxPathLen {
		t.Errorf("MaxPathLen = %d", x.MaxPathLen())
	}
	// g2 holds (0,1) three times, touching its every vertex; g0 and g1 once,
	// touching vertices 0 and 1.
	if x.Stats().Features == 0 || x.Stats().Features != x.Table().Stats().Features {
		t.Errorf("Stats().Features = %d, its table's %d", x.Stats().Features, x.Table().Stats().Features)
	}
	posts, refs := x.Table().Located([]graph.Label{0, 1})
	var got [][]int32
	for c := posts.Cursor(); c.Next(); {
		words := ftv.Words(x.Dataset()[c.Graph()].N())
		got = append(got, x.Table().LocSets().AppendIDs(nil, refs[len(got)], words))
	}
	if want := [][]int32{{0, 1}, {0, 1}, {0, 1, 2, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("locations of (0,1) = %v, want %v", got, want)
	}
	// An insert extracts no locations, so the table refuses one.
	if _, err := x.Table().WithGraph(context.Background(), smallDataset()[0]); err == nil {
		t.Error("Grapes' table took an insert that would drop its locations")
	}
}

// TestBuildStartsNoGoroutine: Grapes/4 fans out on the pool it is built with
// and keeps no pool of its own, so building one starts no goroutine and
// there is nothing to Close.
func TestBuildStartsNoGoroutine(t *testing.T) {
	pool := exec.New(2)
	t.Cleanup(pool.Close)
	grown := leakcheck.Check(t, 0)
	x := Build(smallDataset(), Options{Workers: 4, Pool: pool})
	if n := grown(); n != 0 {
		t.Errorf("building %s started %d goroutines, want 0", x.Name(), n)
	}
}

func TestFilterPresence(t *testing.T) {
	x := Build(smallDataset(), Options{})
	// query edge 0-1: present in all three graphs
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	got := x.Filter(q)
	if len(got) != 3 {
		t.Errorf("Filter = %v, want all graphs", got)
	}
	// query path 0-1-2... wait labels: 0,1,2 chain exists in g0 and g1 only
	q2 := graph.MustNew("q2", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	got2 := x.Filter(q2)
	if len(got2) != 2 || got2[0] != 0 || got2[1] != 1 {
		t.Errorf("Filter = %v, want [0 1]", got2)
	}
	// unknown label: no candidates
	q3 := graph.MustNew("q3", []graph.Label{9, 9}, [][2]int{{0, 1}})
	if got3 := x.Filter(q3); len(got3) != 0 {
		t.Errorf("Filter = %v, want empty", got3)
	}
}

func TestFilterFrequencyPruning(t *testing.T) {
	x := Build(smallDataset(), Options{})
	// query star with two 0-leaves on a 1-center: path 0-1 must occur at
	// least twice. g2 (three leaves) qualifies; g0/g1 have the 0-1 path
	// only once per direction.
	q := graph.MustNew("q", []graph.Label{1, 0, 0}, [][2]int{{0, 1}, {0, 2}})
	got := x.Filter(q)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Filter = %v, want [2]", got)
	}
}

func TestFilterEdgelessQuery(t *testing.T) {
	x := Build(smallDataset(), Options{})
	q := graph.MustNew("q", []graph.Label{0}, nil)
	if got := x.Filter(q); len(got) != 3 {
		t.Errorf("edgeless query: Filter = %v, want all graphs", got)
	}
}

func TestCandidateVertices(t *testing.T) {
	x := Build(smallDataset(), Options{})
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	verts, ok := x.CandidateVertices(q, 1)
	if !ok {
		t.Fatal("g1 must pass the filter")
	}
	// g1 = 0(0)-1(1)-2(2)-3(0): path 0,1,2 occurrence = vertices {0,1,2};
	// reverse path 2,1,0 also maximal in query => locations include {0,1,2}
	// (path 2-1-0 in g1: vertices 2,1,0) — vertex 3 appears via 3(0)-2(2)?
	// No: query maximal label paths are (0,1,2) and (2,1,0); g1 occurrence
	// of (2,1,0): vertices 2,1,0 only. But (0,1,2) also matches 3? Vertex 3
	// has label 0 and neighbor 2 has label 2, not 1 — no.
	if len(verts) != 3 {
		t.Errorf("candidate vertices = %v, want {0,1,2}", verts)
	}
	_, ok = x.CandidateVertices(q, 2)
	if ok {
		t.Error("g2 must fail the filter for the 0-1-2 chain")
	}
}

func TestVerifyDecision(t *testing.T) {
	ds := smallDataset()
	for _, workers := range []int{1, 4} {
		x := Build(ds, Options{Workers: workers})
		q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
		for id, want := range []bool{true, true, false} {
			if want && !contains(x.Filter(q), id) {
				t.Fatalf("graph %d should pass filter", id)
			}
			if contains(x.Filter(q), id) {
				got, err := x.Verify(context.Background(), q, id)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("workers=%d graph %d: Verify = %v, want %v", workers, id, got, want)
				}
			}
		}
	}
}

func TestAnswerMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 6, 12, 3)
		x := Build(ds, Options{Workers: 2, MaxPathLen: 3})
		q := extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(4))
		got, err := ftv.Answer(context.Background(), x, q)
		if err != nil {
			return false
		}
		want := bruteForceAnswer(ds, q)
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

// Filter soundness: a graph that contains the query must never be pruned.
func TestFilterNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 5, 14, 3)
		x := Build(ds, Options{MaxPathLen: 4})
		src := r.Intn(len(ds))
		q := extractQuery(r, ds[src], 2+r.Intn(5))
		return contains(x.Filter(q), src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVerifyDisconnectedQuery(t *testing.T) {
	ds := []*graph.Graph{
		graph.MustNew("g", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {2, 3}}),
	}
	x := Build(ds, Options{})
	q := graph.MustNew("q", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {2, 3}})
	ok, err := x.Verify(context.Background(), q, 0)
	if err != nil || !ok {
		t.Errorf("disconnected query should verify: %v %v", ok, err)
	}
}

// TestVerifyVertexOnNoPath: locations bound only query vertices that lie on a
// path feature. A query with a vertex of degree 0 passes the filter on its
// edges alone, and the location union then holds no vertex to map the isolated
// one to — verification has to fall back to the whole graph, as FTV and GGSX
// do, or the raced answer depends on who wins.
func TestVerifyVertexOnNoPath(t *testing.T) {
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}}) // A–B + isolated C
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"A-B, C", graph.MustNew("g", []graph.Label{0, 1, 2}, [][2]int{{0, 1}}), true},
		{"A-B, C-D", graph.MustNew("g", []graph.Label{0, 1, 2, 3}, [][2]int{{0, 1}, {2, 3}}), true},
		{"A-B, D", graph.MustNew("g", []graph.Label{0, 1, 3}, [][2]int{{0, 1}}), false},
	} {
		for _, workers := range []int{1, 4} {
			x := Build([]*graph.Graph{tc.g}, Options{Workers: workers})
			if got := x.Filter(q); len(got) != 1 {
				t.Fatalf("%s: Filter = %v, want the graph kept", tc.name, got)
			}
			got, err := x.Verify(context.Background(), q, 0)
			if err != nil || got != tc.want {
				t.Errorf("%s, workers=%d: Verify = %v, %v; want %v", tc.name, workers, got, err, tc.want)
			}
			if verts, ok := x.CandidateVertices(q, 0); !ok || len(verts) != tc.g.N() {
				t.Errorf("%s: CandidateVertices = %v, %v; want every vertex", tc.name, verts, ok)
			}
			x.Close()
		}
	}
}

// mixedDataset is graphs of both kinds in one index: small or label-poor ones,
// whose location sets are all bitset rows, and 70-to-140-vertex ones over many
// labels, most of whose features touch too few vertices for a row to pay.
func mixedDataset(r *rand.Rand) []*graph.Graph {
	var ds []*graph.Graph
	ds = append(ds, randomDataset(r, 4, 10+r.Intn(30), 2)...)
	ds = append(ds, randomDataset(r, 3, 70+r.Intn(70), 2+r.Intn(2))...)
	ds = append(ds, randomDataset(r, 3, 70+r.Intn(70), 12+r.Intn(12))...)
	r.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// disjointUnion is a and b side by side, with extra isolated vertices.
func disjointUnion(a, b *graph.Graph, isolated ...graph.Label) *graph.Graph {
	bl := graph.NewBuilder("q")
	for _, g := range []*graph.Graph{a, b} {
		base := bl.N()
		for v := 0; v < g.N(); v++ {
			bl.AddVertex(g.Label(v))
		}
		g.Edges(func(u, v int) {
			if err := bl.AddEdge(base+u, base+v); err != nil {
				panic(err)
			}
		})
	}
	for _, l := range isolated {
		bl.AddVertex(l)
	}
	return bl.MustBuild()
}

// TestDifferentialAgainstFTVAndBruteForce: over datasets holding location
// sets of both forms in one index, Grapes with 1 and 4 workers — through the
// sequential filter→verify and the pooled streaming pipeline, and restored
// from its exported features — answers every connected, disconnected and
// isolated-vertex query as the flat path index and a brute-force VF2 scan of
// the dataset do.
func TestDifferentialAgainstFTVAndBruteForce(t *testing.T) {
	ctx := context.Background()
	empty := graph.MustNew("none", nil, nil)
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds := mixedDataset(r)
		flat, err := index.BuildPath(ctx, ds, index.Options{MaxPathLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		x1 := Build(ds, Options{Workers: 1, MaxPathLen: 3})
		x4 := Build(ds, Options{Workers: 4, MaxPathLen: 3})
		if st := x1.Stats(); st.LocationRows == 0 || st.LocationLists == 0 {
			t.Fatalf("seed %d: fixture has %d row sets and %d list sets; want both forms", seed, st.LocationRows, st.LocationLists)
		}
		feats, maxLen, err := index.Export(x1)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := index.Restore(Kind, ds, maxLen, index.Options{}, feats)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			a := extractQuery(r, ds[r.Intn(len(ds))], 1+r.Intn(5))
			b := extractQuery(r, ds[r.Intn(len(ds))], 1+r.Intn(3))
			var q *graph.Graph
			switch trial % 3 {
			case 0:
				q = a
			case 1:
				q = disjointUnion(a, b)
			default:
				q = disjointUnion(a, empty, b.Label(0))
			}
			want := bruteForceAnswer(ds, q)
			for name, got := range map[string]func() ([]int, error){
				"FTV":               func() ([]int, error) { return ftv.Answer(ctx, flat, q) },
				"Grapes/1":          func() ([]int, error) { return ftv.Answer(ctx, x1, q) },
				"Grapes/4":          func() ([]int, error) { return ftv.Answer(ctx, x4, q) },
				"Grapes/1 streamed": func() ([]int, error) { return index.Answer(ctx, x1, q, nil) },
				"Grapes/4 streamed": func() ([]int, error) { return index.Answer(ctx, x4, q, nil) },
				"Grapes/1 restored": func() ([]int, error) { return ftv.Answer(ctx, restored, q) },
			} {
				ids, err := got()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(ids, want) {
					t.Fatalf("seed %d trial %d (%d vertices, %d edges, connected=%v): %s answered %v, brute force %v",
						seed, trial, q.N(), q.M(), q.IsConnected(), name, ids, want)
				}
			}
		}
		x1.Close()
		x4.Close()
		restored.Close()
	}
}

// TestConcurrentQueries: different queries interleaved on one index — they
// overwrite each other's remembered query plan and share the scratch pool —
// answer as they do alone.
func TestConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ds := mixedDataset(r)
	x := Build(ds, Options{Workers: 2, MaxPathLen: 3})
	defer x.Close()
	queries := make([]*graph.Graph, 8)
	want := make([][]int, len(queries))
	for i := range queries {
		queries[i] = extractQuery(r, ds[r.Intn(len(ds))], 1+r.Intn(5))
		want[i] = bruteForceAnswer(ds, queries[i])
	}
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				got, err := ftv.Answer(context.Background(), x, q)
				if err != nil || !slices.Equal(got, want[i]) {
					t.Errorf("query %d round %d: answered %v, %v; want %v", i, round, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestVerifyCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds := []*graph.Graph{randomGraphDense(r, 60, 0.3)}
	x := Build(ds, Options{MaxPathLen: 2})
	q := extractQuery(r, ds[0], 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.Verify(ctx, q, 0); err == nil {
		t.Error("expected context error")
	}
}

func TestParallelVerifyAgreesWithSequential(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	// dataset graph with several components
	b := graph.NewBuilder("multi")
	for c := 0; c < 4; c++ {
		base := b.N()
		for i := 0; i < 8; i++ {
			b.AddVertex(graph.Label(r.Intn(2)))
		}
		for i := 1; i < 8; i++ {
			if err := b.AddEdge(base+r.Intn(i), base+i); err != nil {
				panic(err)
			}
		}
	}
	g := b.MustBuild()
	ds := []*graph.Graph{g}
	x1 := Build(ds, Options{Workers: 1})
	x4 := Build(ds, Options{Workers: 4})
	for trial := 0; trial < 10; trial++ {
		q := extractQuery(r, g, 2+r.Intn(3))
		if !contains(x1.Filter(q), 0) {
			t.Fatal("source graph must pass filter")
		}
		a, err1 := x1.Verify(context.Background(), q, 0)
		bb, err2 := x4.Verify(context.Background(), q, 0)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != bb {
			t.Errorf("trial %d: Grapes/1 = %v, Grapes/4 = %v", trial, a, bb)
		}
		if !a {
			t.Errorf("trial %d: extracted query must be contained", trial)
		}
	}
}

func contains(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func bruteForceAnswer(ds []*graph.Graph, q *graph.Graph) []int {
	var out []int
	for id, g := range ds {
		embs, err := vf2.Match(context.Background(), q, g, 1)
		if err != nil {
			panic(err)
		}
		if len(embs) > 0 {
			out = append(out, id)
		}
	}
	return out
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

func randomGraphDense(r *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder("dense")
	for v := 0; v < n; v++ {
		b.AddVertex(0)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				if err := b.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.MustBuild()
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

// TestBuildContextCancellation: a cancelled context aborts the build
// instead of running feature extraction to completion (satellite fix for
// the previously uncancellable parallel build).
func TestBuildContextCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ds := randomDataset(r, 6, 30, 2) // dense-ish labels: plenty of paths
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, ds, Options{}); err == nil {
		t.Fatal("BuildContext with a cancelled context must fail")
	}
	// A live context still builds, identically to Build.
	x1, err := BuildContext(context.Background(), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x2 := Build(ds, Options{})
	q := extractQuery(r, ds[0], 3)
	got, want := x1.Filter(q), x2.Filter(q)
	if len(got) != len(want) {
		t.Fatalf("Filter after ctx build %v vs plain build %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Filter after ctx build %v vs plain build %v", got, want)
		}
	}
}

// TestBuildContextCancelMidExtraction cancels while extraction is running
// and asserts the build returns promptly with the context error.
func TestBuildContextCancelMidExtraction(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	// A single label and high connectivity make path enumeration heavy
	// enough that cancellation lands mid-graph.
	ds := randomDataset(r, 4, 60, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := BuildContext(ctx, ds, Options{MaxPathLen: 6})
	if err == nil {
		t.Skip("build finished before the deadline; machine too fast for this fixture")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled build took %v — cancellation is not cooperative", elapsed)
	}
}

// TestStatsAndFilterStream sanity-checks the unified-contract additions.
func TestStatsAndFilterStream(t *testing.T) {
	ds := smallDataset()
	x := Build(ds, Options{Workers: 2})
	defer x.Close()
	st := x.Stats()
	if st.Kind != Kind || st.Name != x.Name() || st.Graphs != 3 || st.Features == 0 || st.LocationBytes == 0 {
		t.Errorf("Stats = %+v", st)
	}
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	want := x.Filter(q)
	var got []int
	if err := x.FilterStream(context.Background(), q, func(id int) bool {
		got = append(got, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("FilterStream %v vs Filter %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("FilterStream %v vs Filter %v", got, want)
		}
	}
}
