package psi_test

import (
	"context"
	"slices"
	"testing"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/index"
)

// mustBuildIndex builds one registered filtering-index kind or fails the test.
func mustBuildIndex(tb testing.TB, kind string, ds []*psi.Graph, workers int) psi.FilterIndex {
	tb.Helper()
	x, err := psi.BuildIndex(context.Background(), kind, ds, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

func storedGraph() *psi.Graph {
	// two triangles joined by a bridge, mixed labels
	return psi.MustNewGraph("store",
		[]psi.Label{0, 1, 2, 0, 1, 2},
		[][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}})
}

func TestNewMatcherAllAlgorithms(t *testing.T) {
	g := storedGraph()
	q := psi.MustNewGraph("q", []psi.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	for _, algo := range []psi.Algorithm{psi.VF2, psi.QuickSI, psi.GraphQL, psi.SPath} {
		embs, err := psi.MustNewMatcher(algo, g).Match(context.Background(), q, 100)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		// two labeled triangles, each with 3 rotations... labels fix the
		// assignment up to rotation: exactly 1 embedding per triangle.
		if len(embs) != 2 {
			t.Errorf("%s: got %d embeddings, want 2", algo, len(embs))
		}
		verifyAll(t, q, g, embs)
	}
}

// TestNewMatcherNilGraph: every algorithm refuses a nil stored graph with an
// error, as NewEngine does, instead of panicking or building over nothing.
func TestNewMatcherNilGraph(t *testing.T) {
	for _, algo := range []psi.Algorithm{psi.VF2, psi.QuickSI, psi.GraphQL, psi.SPath} {
		t.Run(string(algo), func(t *testing.T) {
			m, err := psi.NewMatcher(algo, nil)
			if m != nil || err == nil || err.Error() != "psi: NewMatcher requires a stored graph" {
				t.Errorf("NewMatcher(%s, nil) = %v, %v; want no matcher and the stored-graph error", algo, m, err)
			}
		})
	}
}

func TestNewMatcherUnknown(t *testing.T) {
	if _, err := psi.NewMatcher("NOPE", storedGraph()); err == nil {
		t.Error("expected error")
	}
}

func TestApplyRewritingRoundTrip(t *testing.T) {
	g := storedGraph()
	q := psi.MustNewGraph("q", []psi.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	q2, perm := psi.ApplyRewriting(q, g, psi.ILFDND)
	if q2.N() != q.N() || q2.M() != q.M() {
		t.Fatal("rewriting changed the graph size")
	}
	m := psi.MustNewMatcher(psi.VF2, g)
	embs, err := m.Match(context.Background(), q2, 1)
	if err != nil || len(embs) == 0 {
		t.Fatalf("rewritten query should match: %v %v", embs, err)
	}
	back := make(psi.Embedding, q.N())
	for u := range back {
		back[u] = embs[0][perm[u]]
	}
	if err := psi.VerifyEmbedding(q, g, back); err != nil {
		t.Error(err)
	}
}

func TestStructuredRewritingsCopy(t *testing.T) {
	a := psi.StructuredRewritings()
	if len(a) != 5 {
		t.Fatalf("got %d rewritings", len(a))
	}
	a[0] = psi.Orig
	if psi.StructuredRewritings()[0] == psi.Orig {
		t.Error("StructuredRewritings must return a copy")
	}
}

func TestFTVPipelineAPI(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 7)
	x := mustBuildIndex(t, "grapes", ds, 2)
	defer x.Close()
	q := psi.ExtractQuery(ds[0], 5, 99)
	ids, err := index.SequentialAnswer(context.Background(), x, q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ids, 0) {
		t.Error("source graph must contain the extracted query")
	}
	// the raced pipeline streams the same answer
	eng := newDatasetEngine(t, ds, psi.EngineOptions{IndexWorkers: 2, Rewritings: []psi.Rewriting{psi.Orig, psi.ILF, psi.DND}})
	if ids2 := streamIDs(t, eng, q); !slices.Equal(ids, ids2) {
		t.Errorf("raced answer %v != plain answer %v", ids2, ids)
	}
	// GGSX agrees too
	x2 := mustBuildIndex(t, "ggsx", ds, 0)
	defer x2.Close()
	ids3, err := index.SequentialAnswer(context.Background(), x2, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids3) != len(ids) {
		t.Errorf("GGSX answer %v != Grapes answer %v", ids3, ids)
	}
}

func TestGeneratorsAndStats(t *testing.T) {
	y := psi.GenerateYeastLike(psi.Tiny, 1)
	h := psi.GenerateHumanLike(psi.Tiny, 1)
	w := psi.GenerateWordnetLike(psi.Tiny, 1)
	if psi.ComputeStats(h).AvgDegree <= psi.ComputeStats(y).AvgDegree {
		t.Error("human-like should be denser than yeast-like")
	}
	if psi.ComputeStats(w).Labels > 5 {
		t.Error("wordnet-like should have at most 5 labels")
	}
	syn := psi.GenerateSynthetic(psi.Tiny, 1)
	st := psi.ComputeDatasetStats("syn", syn)
	if st.NumGraphs != len(syn) {
		t.Error("dataset stats")
	}
}

func TestExtractQueryDeterministic(t *testing.T) {
	g := psi.GenerateYeastLike(psi.Tiny, 2)
	a := psi.ExtractQuery(g, 8, 5)
	b := psi.ExtractQuery(g, 8, 5)
	if !a.Equal(b) {
		t.Error("same seed must reproduce the query")
	}
	if a.M() != 8 {
		t.Errorf("query has %d edges", a.M())
	}
}

func TestBuilderAPI(t *testing.T) {
	b := psi.NewBuilder("g")
	v0 := b.AddVertex(3)
	v1 := b.AddVertex(4)
	if err := b.AddEdge(v0, v1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Error("builder result")
	}
}

// TestFilterIndexFacade exercises the unified filtering-index exports: the
// registry lists all three kinds, BuildIndex constructs any of them, and
// every built index answers identically through the FTV pipeline.
func TestFilterIndexFacade(t *testing.T) {
	kinds := psi.IndexKinds()
	if len(kinds) < 3 {
		t.Fatalf("IndexKinds = %v, want ftv/grapes/ggsx", kinds)
	}
	ds := []*psi.Graph{
		psi.MustNewGraph("d0", []psi.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 0}}),
		psi.MustNewGraph("d1", []psi.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		psi.MustNewGraph("d2", []psi.Label{1, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}}),
	}
	q := psi.MustNewGraph("q", []psi.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	var want []int
	for i, kind := range kinds {
		x, err := psi.BuildIndex(context.Background(), kind, ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st := x.Stats(); st.Kind != kind || st.Graphs != len(ds) {
			t.Errorf("%s Stats = %+v", kind, st)
		}
		got, err := index.SequentialAnswer(context.Background(), x, q)
		x.Close()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s answered %v, first kind answered %v", kind, got, want)
		}
	}
	if _, err := psi.BuildIndex(context.Background(), "btree", ds, 1); err == nil {
		t.Error("BuildIndex of unknown kind must fail")
	}
	// The sharded constructor answers identically to the monolithic build
	// and reports its partitioning in Stats.
	sh, err := psi.NewShardedIndex(context.Background(), kinds[0], ds, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if st := sh.Stats(); st.ShardCount != 2 || len(st.Shards) != 2 {
		t.Errorf("sharded Stats = %+v, want ShardCount 2 with per-shard breakdown", st)
	}
	got, err := index.SequentialAnswer(context.Background(), sh, q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sharded index answered %v, monolithic %v", got, want)
	}
	if _, err := psi.NewShardedIndex(context.Background(), "btree", ds, 2, 1); err == nil {
		t.Error("NewShardedIndex of unknown kind must fail")
	}
}
