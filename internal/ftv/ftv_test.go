package ftv

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
)

func TestPathKeyRoundTrip(t *testing.T) {
	seqs := [][]graph.Label{
		{0}, {1, 2}, {5, 5, 5}, {1000000, 0, 3},
	}
	for _, s := range seqs {
		got := DecodePathKey(PathKey(s))
		if len(got) != len(s) {
			t.Fatalf("round trip of %v = %v", s, got)
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("round trip of %v = %v", s, got)
			}
		}
	}
}

func TestPathKeyDistinguishesSequences(t *testing.T) {
	a := PathKey([]graph.Label{1, 2})
	b := PathKey([]graph.Label{2, 1})
	c := PathKey([]graph.Label{1, 2, 0})
	if a == b || a == c || b == c {
		t.Error("distinct sequences must have distinct keys")
	}
}

func TestExtractFeaturesPathGraph(t *testing.T) {
	// path 0(a)-1(b)-2(c): directed paths: a-b, b-a, b-c, c-b, a-b-c, c-b-a
	g := graph.MustNew("p", []graph.Label{10, 11, 12}, [][2]int{{0, 1}, {1, 2}})
	feats := ExtractFeatures(g, 4, true)
	if feats.Len() != 6 {
		t.Fatalf("got %d features, want 6", feats.Len())
	}
	f, ok := find(feats, []graph.Label{10, 11, 12})
	if !ok || feats.Count(f) != 1 {
		t.Fatalf("a-b-c feature: found=%v", ok)
	}
	if len(feats.Locations(f)) != 3 {
		t.Errorf("a-b-c locations = %v, want all 3 vertices", feats.Locations(f))
	}
	f2, ok := find(feats, []graph.Label{11, 10})
	if !ok || feats.Count(f2) != 1 {
		t.Fatalf("b-a feature: found=%v", ok)
	}
	if len(feats.Locations(f2)) != 2 {
		t.Errorf("b-a locations = %v", feats.Locations(f2))
	}
}

func TestExtractFeaturesCountsMultipleOccurrences(t *testing.T) {
	// star: center label 0, two leaves label 1: path 1-0 occurs twice
	g := graph.MustNew("s", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}})
	feats := ExtractFeatures(g, 2, false)
	f, ok := find(feats, []graph.Label{1, 0})
	if !ok || feats.Count(f) != 2 {
		t.Fatalf("leaf-center feature: found=%v, want count 2", ok)
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

func TestQueryFeaturesMaximalOnly(t *testing.T) {
	// path a-b-c with maxLen 4: maximal paths (DFS from every start) are
	// a-b-c, c-b-a, plus b-a and b-c (starting mid-path, immediately
	// stuck). Prefixes of longer DFS walks, like a-b, must NOT appear.
	g := graph.MustNew("p", []graph.Label{10, 11, 12}, [][2]int{{0, 1}, {1, 2}})
	feats := QueryFeatures(g, 4)
	if len(feats) != 4 {
		t.Fatalf("got %d query features, want 4", len(feats))
	}
	if feats[MakeKey([]graph.Label{10, 11, 12})] == nil {
		t.Error("missing maximal path a-b-c")
	}
	if feats[MakeKey([]graph.Label{11, 10})] == nil {
		t.Error("missing maximal path b-a")
	}
	if feats[MakeKey([]graph.Label{10, 11})] != nil {
		t.Error("non-maximal prefix a-b must not be a query feature")
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

func TestMakeKeyPackedRoundTrip(t *testing.T) {
	seqs := [][]graph.Label{
		{}, {0}, {0, 0}, {1, 2}, {5, 5, 5}, {4095, 0, 4095}, {1, 2, 3, 4, 5},
	}
	for _, s := range seqs {
		k := MakeKey(s)
		if k.packed == 0 {
			t.Errorf("MakeKey(%v) did not pack (str fallback %q)", s, k.str)
		}
		got := k.Labels()
		if len(got) != len(s) {
			t.Fatalf("Labels() of %v = %v", s, got)
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("Labels() of %v = %v", s, got)
			}
		}
	}
}

func TestMakeKeyFallback(t *testing.T) {
	big := []graph.Label{4096, 1}           // label beyond 12 bits
	long := []graph.Label{1, 2, 3, 4, 5, 6} // more than 5 labels
	for _, s := range [][]graph.Label{big, long} {
		k := MakeKey(s)
		if k.packed != 0 || k.str == "" {
			t.Errorf("MakeKey(%v) = %+v, want string fallback", s, k)
		}
		got := k.Labels()
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("fallback Labels() of %v = %v", s, got)
			}
		}
	}
}

func TestMakeKeyDistinguishesSequences(t *testing.T) {
	seqs := [][]graph.Label{
		{}, {0}, {0, 0}, {0, 0, 0}, {1}, {1, 0}, {0, 1}, {1, 2}, {2, 1},
		{1, 2, 0}, {4095}, {4095, 4095}, {4096}, {1, 2, 3, 4, 5, 6},
	}
	seen := make(map[Key]int)
	for i, s := range seqs {
		k := MakeKey(s)
		if j, dup := seen[k]; dup {
			t.Errorf("sequences %v and %v share key %+v", seqs[j], s, k)
		}
		seen[k] = i
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
// positional, so any worker count yields identical per-graph features.
func TestExtractDatasetFeaturesDeterministicAcrossPools(t *testing.T) {
	var ds []*graph.Graph
	for i := 0; i < 6; i++ {
		ds = append(ds, graph.MustNew(fmt.Sprintf("g%d", i),
			[]graph.Label{graph.Label(i % 3), 1, 2, 0},
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}))
	}
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
