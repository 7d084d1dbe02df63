package ftv

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/difftest"
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

// TestExtractFeaturesContextCancel: a cancelled context aborts extraction
// mid-graph and reports the cancellation.
func TestExtractFeaturesContextCancel(t *testing.T) {
	// A clique of one label has a huge bounded-path count, so the
	// periodic context check fires long before enumeration finishes.
	g := complete(24, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtractFeaturesContext(ctx, g, 6, false); err == nil {
		t.Fatal("cancelled extraction must fail")
	}
	// The context-free wrapper still works.
	if ExtractFeatures(g, 2, false).Len() == 0 {
		t.Fatal("extraction produced no features")
	}
}

// TestExtractDatasetFeaturesDeterministicAcrossPools: pooled extraction is
// positional, and a feature's slot number depends on which worker took its
// graph, so what any worker count must give is each graph's canonical view —
// label sequence → count and location IDs — the one a sequential extraction
// and the oracle give. The scratch a worker carries from graph to graph must
// leave no trace in it: on the 1-worker pool one extractor meets every graph
// in turn, large and tiny alternating, location sets as rows (3 labels), as
// lists (40 labels) and of every row length; and with the seal size lowered,
// a worker's graphs spread over many tries, sealed ones included.
func TestExtractDatasetFeaturesDeterministicAcrossPools(t *testing.T) {
	var ds []*graph.Graph
	for i := 0; i < 6; i++ {
		ds = append(ds, graph.MustNew(fmt.Sprintf("g%d", i),
			[]graph.Label{graph.Label(i % 3), 1, 2, 0},
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}))
	}
	r := rand.New(rand.NewSource(3))
	few := func(int) graph.Label { return graph.Label(r.Intn(3)) }
	many := func(int) graph.Label { return graph.Label(r.Intn(40)) }
	ds = append(ds,
		difftest.Sparse(r, "rand-300", 300, 3, few), graph.MustNew("one", []graph.Label{1}, nil), graph.MustNew("edgeless", []graph.Label{0, 2, 2}, nil),
		difftest.Sparse(r, "rand-300", 300, 3, many), difftest.Sparse(r, "rand-14", 14, 3, few), difftest.Sparse(r, "rand-300", 300, 3, many),
		difftest.Sparse(r, "rand-300", 300, 3, few), graph.MustNew("edgeless", make([]graph.Label, 70), nil), difftest.Sparse(r, "rand-100", 100, 3, many))
	want := make([][]oracleFeature, len(ds))
	for i, g := range ds {
		want[i] = oracleWant(t, g.Name(), g, 4)
		assertFeatures(t, g.Name()+" sequential", ExtractFeatures(g, 4, true), want[i], 4, true)
	}
	defer func(slots int) { trieSealSlots = slots }(trieSealSlots)
	for _, seal := range []int{trieSealSlots, 64} {
		trieSealSlots = seal
		for _, workers := range []int{1, 2, 4} {
			p := exec.New(workers)
			feats, err := ExtractDatasetFeatures(context.Background(), p, ds, 4, true)
			p.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(feats) != len(ds) {
				t.Fatalf("seal %d, %d workers: %d positional results for %d graphs", seal, workers, len(feats), len(ds))
			}
			tries := map[*LabelTrie]bool{}
			for i, f := range feats {
				tries[f.Trie()] = true
				assertFeatures(t, fmt.Sprintf("seal %d, %d workers, graph %d", seal, workers, i), f, want[i], 4, true)
			}
			if workers == 1 && seal > 1000 && len(tries) != 1 {
				t.Errorf("one worker: the graphs' features are in %d tries, want the worker's one", len(tries))
			}
			if seal < 1000 && len(tries) < 3 {
				t.Errorf("seal %d, %d workers: the graphs' features are in %d tries; the seal size should have split them", seal, workers, len(tries))
			}
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
