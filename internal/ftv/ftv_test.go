package ftv

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
)

func TestExtractFeaturesPathGraph(t *testing.T) {
	// path 0(a)-1(b)-2(c): directed paths: a-b, b-a, b-c, c-b, a-b-c, c-b-a,
	// three undirected ones, kept as a-b, b-c and a-b-c.
	g := graph.MustNew("p", []graph.Label{10, 11, 12}, [][2]int{{0, 1}, {1, 2}})
	feats := ExtractFeatures(g, 4, true)
	if feats.Len() != 3 {
		t.Fatalf("got %d features, want 3", feats.Len())
	}
	f, ok := find(feats, []graph.Label{10, 11, 12})
	if !ok || feats.Count(f) != 1 {
		t.Fatalf("a-b-c feature: found=%v", ok)
	}
	if len(feats.Locations(f)) != 3 {
		t.Errorf("a-b-c locations = %v, want all 3 vertices", feats.Locations(f))
	}
	f2, ok := find(feats, []graph.Label{10, 11})
	if !ok || feats.Count(f2) != 1 {
		t.Fatalf("a-b feature: found=%v", ok)
	}
	if len(feats.Locations(f2)) != 2 {
		t.Errorf("a-b locations = %v", feats.Locations(f2))
	}
	if _, ok := find(feats, []graph.Label{11, 10}); ok {
		t.Error("b-a is a-b read backwards and must not be a feature of its own")
	}
}

func TestExtractFeaturesCountsMultipleOccurrences(t *testing.T) {
	// star: center label 0, two leaves label 1: path 0-1 occurs twice
	g := graph.MustNew("s", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}})
	feats := ExtractFeatures(g, 2, false)
	f, ok := find(feats, []graph.Label{0, 1})
	if !ok || feats.Count(f) != 2 {
		t.Fatalf("center-leaf feature: found=%v, want count 2", ok)
	}
	if feats.Locations(f) != nil {
		t.Error("locations must be nil when not requested")
	}
	// 1-0-1 path occurs twice (both directions)
	f2, ok := find(feats, []graph.Label{1, 0, 1})
	if !ok || feats.Count(f2) != 2 {
		t.Fatalf("leaf-center-leaf feature: found=%v, want count 2", ok)
	}
}

// queryFeature returns the count of the feature spelled labels, 0 if absent.
func queryFeature(feats []QueryFeature, labels ...graph.Label) int32 {
	for _, f := range feats {
		if slices.Equal(f.Labels, labels) {
			return f.Count
		}
	}
	return 0
}

func TestQueryFeaturesMaximalOnly(t *testing.T) {
	// path a-b-c with maxLen 4: maximal paths (DFS from every start) are
	// a-b-c, c-b-a, plus b-a and b-c (starting mid-path, immediately
	// stuck). Prefixes of longer DFS walks, like a-b, must NOT appear — but
	// b-a is looked up as a-b, its oriented spelling, and c-b-a folds into
	// a-b-c.
	g := graph.MustNew("p", []graph.Label{10, 11, 12}, [][2]int{{0, 1}, {1, 2}})
	feats := QueryFeatures(g, 4)
	if len(feats) != 3 {
		t.Fatalf("got %d query features, want 3: %v", len(feats), feats)
	}
	if queryFeature(feats, 10, 11, 12) != 1 {
		t.Error("missing maximal path a-b-c")
	}
	if queryFeature(feats, 10, 11) != 1 || queryFeature(feats, 11, 10) != 0 {
		t.Error("maximal path b-a must appear once, spelled a-b")
	}
	if queryFeature(feats, 11, 12) != 1 {
		t.Error("missing maximal path b-c")
	}
	// With maxLen 1 every edge is maximal from both ends, and the two
	// readings of an edge are one requirement, not two.
	if feats := QueryFeatures(g, 1); len(feats) != 2 || queryFeature(feats, 10, 11) != 1 || queryFeature(feats, 11, 12) != 1 {
		t.Errorf("maxLen 1: %v, want a-b and b-c once each", feats)
	}
}

// TestQueryFeaturesFoldTakesLargerCount: maximality depends on the end a path
// is walked from, so a query can spell a path more often one way than the
// other; the folded feature requires the larger number. In the star below
// 0-1 is maximal twice walked leaf-ward from the centre, but 1-0 never: from a
// leaf the walk goes on through the centre.
func TestQueryFeaturesFoldTakesLargerCount(t *testing.T) {
	g := graph.MustNew("s", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}})
	feats := QueryFeatures(g, 4)
	if len(feats) != 2 || queryFeature(feats, 0, 1) != 2 || queryFeature(feats, 1, 0, 1) != 2 {
		t.Fatalf("features %v, want 0-1 twice and 1-0-1 twice", feats)
	}
	if !slices.IsSortedFunc(feats, func(a, b QueryFeature) int { return slices.Compare(a.Labels, b.Labels) }) {
		t.Errorf("features %v not in canonical order", feats)
	}
	// The triangle 0-1-2 reads 2-1-0 from one end and 0-1-2 from the other,
	// once each: folded, one requirement of one occurrence.
	tri := graph.MustNew("t", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if feats := QueryFeatures(tri, 4); len(feats) != 3 || queryFeature(feats, 0, 1, 2) != 1 || queryFeature(feats, 0, 2, 1) != 1 || queryFeature(feats, 1, 0, 2) != 1 {
		t.Errorf("triangle features %v, want 0-1-2, 0-2-1 and 1-0-2 once each", feats)
	}
}

func TestQueryFeaturesEdgelessQuery(t *testing.T) {
	g := graph.MustNew("v", []graph.Label{0}, nil)
	if len(QueryFeatures(g, 4)) != 0 {
		t.Error("edgeless query has no path features")
	}
}

// fakeIndex exercises the Answer pipeline without a real index.
type fakeIndex struct {
	ds       []*graph.Graph
	filtered []int
}

func (f *fakeIndex) Name() string            { return "fake" }
func (f *fakeIndex) Dataset() []*graph.Graph { return f.ds }
func (f *fakeIndex) Filter(*graph.Graph) []int {
	return f.filtered
}
func (f *fakeIndex) Verify(ctx context.Context, q *graph.Graph, id int) (bool, error) {
	return id%2 == 0, nil
}

func TestAnswerPipeline(t *testing.T) {
	x := &fakeIndex{filtered: []int{0, 1, 2, 3}}
	got, err := Answer(context.Background(), x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Answer = %v, want [0 2]", got)
	}
}

// TestExtractFeaturesContextCancel: a cancelled context aborts extraction
// mid-graph and reports the cancellation.
func TestExtractFeaturesContextCancel(t *testing.T) {
	// A clique of one label has a huge bounded-path count, so the
	// periodic context check fires long before enumeration finishes.
	b := graph.NewBuilder("clique")
	const n = 24
	for v := 0; v < n; v++ {
		b.AddVertex(0)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtractFeaturesContext(ctx, g, 6, false); err == nil {
		t.Fatal("cancelled extraction must fail")
	}
	// The context-free wrapper still works and agrees with itself.
	feats := ExtractFeatures(g, 2, false)
	if feats.Len() == 0 {
		t.Fatal("extraction produced no features")
	}
}

// TestExtractDatasetFeaturesDeterministicAcrossPools: pooled extraction is
// positional, so any worker count yields identical per-graph features — and
// the scratch a worker carries from graph to graph leaves no trace in them:
// on the 1-worker pool one extractor meets every graph in turn, large and tiny
// alternating, location sets as rows (3 labels), as lists (40 labels) and of
// every row length, and each result must equal a fresh extraction's.
func TestExtractDatasetFeaturesDeterministicAcrossPools(t *testing.T) {
	var ds []*graph.Graph
	for i := 0; i < 6; i++ {
		ds = append(ds, graph.MustNew(fmt.Sprintf("g%d", i),
			[]graph.Label{graph.Label(i % 3), 1, 2, 0},
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}))
	}
	r := rand.New(rand.NewSource(3))
	few := func() graph.Label { return graph.Label(r.Intn(3)) }
	many := func() graph.Label { return graph.Label(r.Intn(40)) }
	ds = append(ds,
		randomGraph(r, 300, 3, few), graph.MustNew("one", []graph.Label{1}, nil), graph.MustNew("edgeless", []graph.Label{0, 2, 2}, nil),
		randomGraph(r, 300, 3, many), randomGraph(r, 14, 3, few), randomGraph(r, 300, 3, many),
		randomGraph(r, 300, 3, few), graph.MustNew("edgeless", make([]graph.Label, 70), nil), randomGraph(r, 100, 3, many))
	p1 := exec.New(1)
	defer p1.Close()
	p4 := exec.New(4)
	defer p4.Close()
	f1, err := ExtractDatasetFeatures(context.Background(), p1, ds, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := ExtractDatasetFeatures(context.Background(), p4, ds, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != len(ds) || len(f4) != len(ds) {
		t.Fatalf("positional results missing: %d, %d", len(f1), len(f4))
	}
	// Both agree with each other and with the sequential per-graph
	// extraction, feature for feature.
	for i, g := range ds {
		if !reflect.DeepEqual(f1[i], f4[i]) {
			t.Fatalf("graph %d: features differ between pool sizes 1 and 4", i)
		}
		if seq := ExtractFeatures(g, 4, true); !reflect.DeepEqual(seq, f1[i]) {
			t.Fatalf("graph %d: pooled features differ from sequential", i)
		}
	}
}

// TestExtractDatasetFeaturesCancel: cancelling mid-fan-out surfaces the
// context error.
func TestExtractDatasetFeaturesCancel(t *testing.T) {
	var ds []*graph.Graph
	for i := 0; i < 4; i++ {
		ds = append(ds, graph.MustNew("g", []graph.Label{0, 1}, [][2]int{{0, 1}}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtractDatasetFeatures(ctx, nil, ds, 4, false); err == nil {
		t.Fatal("cancelled dataset extraction must fail")
	}
}
