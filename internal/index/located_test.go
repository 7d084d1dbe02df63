package index_test

// Grapes' configuration of the index: the table with location sets, and the
// located verifier a "grapes" name selects over it (Giugno et al., PLoS One
// 2013, as described in §3.1.1 of the paper) — "Grapes/1" and "Grapes/4" in
// the paper's figures are that verifier with one and four workers.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/leakcheck"
	"github.com/psi-graph/psi/internal/workload"
)

func locatedDataset() []*graph.Graph {
	return []*graph.Graph{
		// 0: triangle of labels 0,1,2
		graph.MustNew("g0", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 0}}),
		// 1: path 0-1-2-3 labels 0,1,2,0
		graph.MustNew("g1", []graph.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		// 2: star center 1 with three 0-leaves
		graph.MustNew("g2", []graph.Label{1, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}}),
	}
}

// grapesView returns the one-shard index over table x verified by
// Grapes/workers, its components fanning out on pool (nil: the default).
func grapesView(t testing.TB, x *index.Path, workers int, pool *exec.Pool) *index.Sharded {
	t.Helper()
	v, err := index.NewVerifier(index.KindGrapes, index.Options{Workers: workers, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return index.NewShardedFrom(x.Dataset(), nil, []*index.Path{x}, v)
}

func TestBuildAndName(t *testing.T) {
	x := buildIndex(t, index.KindGrapes, locatedDataset(), index.Options{Workers: 4})
	if x.Name() != "Grapes/4" {
		t.Errorf("Name = %q", x.Name())
	}
	if len(x.Dataset()) != 3 {
		t.Error("Dataset")
	}
	// g2 holds (0,1) three times, touching its every vertex; g0 and g1 once,
	// touching vertices 0 and 1.
	if st := x.Stats(); st.Features == 0 || st.Kind != index.KindGrapes || st.Name != "Grapes/4" || st.LocationBytes == 0 {
		t.Errorf("Stats = %+v, want Grapes/4's table with locations", st)
	}
	tab := buildTable(t, index.KindGrapes, locatedDataset(), index.Options{})
	if tab.MaxPathLen() != ftv.DefaultMaxPathLen {
		t.Errorf("MaxPathLen = %d", tab.MaxPathLen())
	}
	posts, refs := tab.Located([]graph.Label{0, 1})
	var got [][]int32
	for c := posts.Cursor(); c.Next(); {
		words := ftv.Words(tab.Dataset()[c.Graph()].N())
		got = append(got, tab.LocSets().AppendIDs(nil, refs[len(got)], words))
	}
	if want := [][]int32{{0, 1}, {0, 1}, {0, 1, 2, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("locations of (0,1) = %v, want %v", got, want)
	}
	// An insert extracts no locations, so the table refuses one.
	if _, err := tab.WithGraph(context.Background(), locatedDataset()[0]); err == nil {
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
	x := buildIndex(t, index.KindGrapes, locatedDataset(), index.Options{Workers: 4, Pool: pool})
	if n := grown(); n != 0 {
		t.Errorf("building %s started %d goroutines, want 0", x.Name(), n)
	}
}

// checkGrapesFilter holds Grapes' filter over locatedDataset to each query's
// candidates.
func checkGrapesFilter(t *testing.T, cases map[*graph.Graph][]int) {
	t.Helper()
	x := buildIndex(t, index.KindGrapes, locatedDataset(), index.Options{})
	for q, want := range cases {
		if got := x.Filter(q); !slices.Equal(got, want) {
			t.Errorf("%s: Filter = %v, want %v", q.Name(), got, want)
		}
	}
}

func TestFilterPresence(t *testing.T) {
	checkGrapesFilter(t, map[*graph.Graph][]int{
		// edge 0-1: present in all three graphs
		graph.MustNew("edge", []graph.Label{0, 1}, [][2]int{{0, 1}}): {0, 1, 2},
		// path 0-1-2: the chain exists in g0 and g1 only
		graph.MustNew("path", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}}): {0, 1},
		// unknown label: no candidates
		graph.MustNew("unknown label", []graph.Label{9, 9}, [][2]int{{0, 1}}): nil,
	})
}

// TestFilterFrequencyPruning: a star with two 0-leaves on a 1-centre needs
// the path 0-1 at least twice. g2 (three leaves) qualifies; g0 and g1 have it
// only once per direction.
func TestFilterFrequencyPruning(t *testing.T) {
	checkGrapesFilter(t, map[*graph.Graph][]int{graph.MustNew("star", []graph.Label{1, 0, 0}, [][2]int{{0, 1}, {0, 2}}): {2}})
}

func TestFilterEdgelessQuery(t *testing.T) {
	checkGrapesFilter(t, map[*graph.Graph][]int{graph.MustNew("edgeless", []graph.Label{0}, nil): {0, 1, 2}})
}

func TestCandidateVertices(t *testing.T) {
	x := buildTable(t, index.KindGrapes, locatedDataset(), index.Options{})
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	verts, ok := x.CandidateVertices(q, 1)
	if !ok {
		t.Fatal("g1 must pass the filter")
	}
	// g1 = 0(0)-1(1)-2(2)-3(0): the query's maximal label paths are (0,1,2)
	// and (2,1,0), and their one occurrence in g1 touches vertices 0, 1 and
	// 2. Vertex 3 has label 0, but its neighbour 2 has label 2, not 1.
	if len(verts) != 3 {
		t.Errorf("candidate vertices = %v, want {0,1,2}", verts)
	}
	_, ok = x.CandidateVertices(q, 2)
	if ok {
		t.Error("g2 must fail the filter for the 0-1-2 chain")
	}
}

func TestVerifyDecision(t *testing.T) {
	ds := locatedDataset()
	for _, workers := range []int{1, 4} {
		x := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: workers})
		q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
		if got := x.Filter(q); !slices.Equal(got, []int{0, 1}) {
			t.Fatalf("Filter = %v, want [0 1]", got)
		}
		for id, want := range []bool{true, true} {
			if got, err := x.Verify(context.Background(), q, id); err != nil || got != want {
				t.Errorf("workers=%d graph %d: Verify = %v, %v; want %v", workers, id, got, err, want)
			}
		}
	}
}

func TestLocatedAnswerMatchesBruteForce(t *testing.T) {
	quickCheck(t, index.KindGrapes, index.Options{Workers: 2, MaxPathLen: 3}, 6, 12, 4, 25, answersAsOracle)
}

// TestLocatedFilterNoFalseNegatives: a graph that contains the query must
// never be pruned.
func TestLocatedFilterNoFalseNegatives(t *testing.T) {
	quickCheck(t, index.KindGrapes, index.Options{MaxPathLen: 4}, 5, 14, 5, 40, keepsSource)
}

func TestVerifyDisconnectedQuery(t *testing.T) {
	ds := []*graph.Graph{
		graph.MustNew("g", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {2, 3}}),
	}
	x := buildIndex(t, index.KindGrapes, ds, index.Options{})
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
		tab := buildTable(t, index.KindGrapes, []*graph.Graph{tc.g}, index.Options{})
		if verts, ok := tab.CandidateVertices(q, 0); !ok || len(verts) != tc.g.N() {
			t.Errorf("%s: CandidateVertices = %v, %v; want every vertex", tc.name, verts, ok)
		}
		for _, workers := range []int{1, 4} {
			x := grapesView(t, tab, workers, nil)
			if got := x.Filter(q); len(got) != 1 {
				t.Fatalf("%s: Filter = %v, want the graph kept", tc.name, got)
			}
			got, err := x.Verify(context.Background(), q, 0)
			if err != nil || got != tc.want {
				t.Errorf("%s, workers=%d: Verify = %v, %v; want %v", tc.name, workers, got, err, tc.want)
			}
		}
	}
}

// TestConcurrentQueries: different queries interleaved on one table — they
// overwrite each other's remembered query plan and share the scratch pool —
// answer as they do alone.
func TestConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ds := difftest.Mixed(r)
	x := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 2, MaxPathLen: 3})
	queries := make([]*graph.Graph, 8)
	want := make([][]int, len(queries))
	for i := range queries {
		queries[i] = workload.Extract(r, ds[r.Intn(len(ds))], 1+r.Intn(5))
		want[i] = difftest.Want(ds, queries[i])
	}
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				got, err := index.SequentialAnswer(context.Background(), x, q)
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
	ds := []*graph.Graph{difftest.Graph(r, 60, 500, 1)} // dense, one label: a costly search
	x := buildIndex(t, index.KindGrapes, ds, index.Options{MaxPathLen: 2})
	q := workload.Extract(r, ds[0], 6)
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
	tab := buildTable(t, index.KindGrapes, []*graph.Graph{g}, index.Options{})
	x1, x4 := grapesView(t, tab, 1, nil), grapesView(t, tab, 4, nil)
	for trial := 0; trial < 10; trial++ {
		q := workload.Extract(r, g, 2+r.Intn(3))
		if !slices.Contains(x1.Filter(q), 0) {
			t.Fatal("source graph must pass filter")
		}
		a, err1 := x1.Verify(context.Background(), q, 0)
		bb, err2 := x4.Verify(context.Background(), q, 0)
		if err1 != nil || err2 != nil || !a || !bb {
			t.Errorf("trial %d: Grapes/1 = %v, %v, Grapes/4 = %v, %v; want the extracted query contained", trial, a, err1, bb, err2)
		}
	}
}

// TestBuildContextCancellation: a cancelled context aborts the build
// instead of running feature extraction to completion.
func TestBuildContextCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ds := difftest.Random(r, 6, 30, 2) // dense-ish labels: plenty of paths
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := index.Build(ctx, index.KindGrapes, ds, 1, index.Options{}); err == nil {
		t.Fatal("Build with a cancelled context must fail")
	}
	// A live context still builds, identically on every call.
	x1 := buildIndex(t, index.KindGrapes, ds, index.Options{})
	x2 := buildIndex(t, index.KindGrapes, ds, index.Options{})
	q := workload.Extract(r, ds[0], 3)
	if got, want := x1.Filter(q), x2.Filter(q); !slices.Equal(got, want) {
		t.Fatalf("Filter after one build %v vs another %v", got, want)
	}
}

// TestBuildContextCancelMidExtraction: a build's pooled extraction stops
// when its context does. The dataset's second graph is K24 at paths of up to
// 8 edges: the extraction's walk to depth 6 alone visits about 1.7 billion
// paths, so the build returns only if the group's tasks see the deadline. A
// build still running after the bounded wait fails the test instead of
// hanging it.
func TestBuildContextCancelMidExtraction(t *testing.T) {
	var k24 [][2]int
	for u := 0; u < 24; u++ {
		for v := u + 1; v < 24; v++ {
			k24 = append(k24, [2]int{u, v})
		}
	}
	ds := []*graph.Graph{locatedDataset()[0], graph.MustNew("K24", make([]graph.Label, 24), k24)}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := index.Build(ctx, index.KindGrapes, ds, 1, index.Options{MaxPathLen: 8})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Build = %v, want the context's deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Build still running 10 s after its 50 ms deadline: extraction ignores the context")
	}
}

// TestStatsAndFilterStream: Grapes' index reports its kind, its verifier's
// name and its locations, and streams the candidates the flat path index
// filters: the locations change verification only.
func TestStatsAndFilterStream(t *testing.T) {
	ds := locatedDataset()
	x := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 2})
	st := x.Stats()
	if st.Kind != index.KindGrapes || st.Name != x.Name() || st.Name != "Grapes/2" || st.Graphs != 3 || st.Features == 0 || st.LocationBytes == 0 {
		t.Errorf("Stats = %+v", st)
	}
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	want := buildIndex(t, index.KindPath, ds, index.Options{}).Filter(q)
	var got []int
	err := x.FilterStream(context.Background(), q, func(id int) bool {
		got = append(got, id)
		return true
	})
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("FilterStream %v, %v vs the flat index's Filter %v", got, err, want)
	}
}
