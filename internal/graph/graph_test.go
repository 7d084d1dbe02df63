package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// triangle with a pendant: 0-1, 1-2, 2-0, 2-3
func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := New("t", []Label{0, 1, 2, 1}, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := testGraph(t)
	if g.N() != 4 {
		t.Errorf("N = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Errorf("M = %d, want 4", g.M())
	}
	if g.Label(3) != 1 {
		t.Errorf("Label(3) = %d, want 1", g.Label(3))
	}
	if g.MaxLabel() != 2 {
		t.Errorf("MaxLabel = %d, want 2", g.MaxLabel())
	}
	if g.Degree(2) != 3 {
		t.Errorf("Degree(2) = %d, want 3", g.Degree(2))
	}
	if g.Degree(3) != 1 {
		t.Errorf("Degree(3) = %d, want 1", g.Degree(3))
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	g := testGraph(t)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}} {
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
			t.Errorf("edge %v should exist in both directions", e)
		}
	}
	if g.HasEdge(0, 3) || g.HasEdge(3, 0) {
		t.Error("edge (0,3) should not exist")
	}
	if g.HasEdge(1, 3) {
		t.Error("edge (1,3) should not exist")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := testGraph(t)
	nb := g.Neighbors(2)
	want := []int32{0, 1, 3}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
	}
	for i := range nb {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := testGraph(t)
	got := g.EdgeList()
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("EdgeList = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("EdgeList = %v, want %v", got, want)
		}
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder("x")
	b.AddVertex(0)
	if err := b.AddEdge(0, 0); err == nil {
		t.Error("expected error for self-loop")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder("x")
	b.AddVertex(0)
	if err := b.AddEdge(0, 1); err == nil {
		t.Error("expected error for out-of-range endpoint")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("expected error for negative endpoint")
	}
}

func TestBuilderRejectsDuplicateEdges(t *testing.T) {
	b := NewBuilder("x")
	b.AddVertex(0)
	b.AddVertex(1)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("expected duplicate-edge error (same edge in both orientations)")
	}
}

func TestBuilderRejectsNegativeLabel(t *testing.T) {
	b := NewBuilder("x")
	b.AddVertex(-1)
	if _, err := b.Build(); err == nil {
		t.Error("expected error for negative label")
	}
}

func TestDegreeSumInvariant(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(7)), 40, 0.1, 5)
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Errorf("degree sum %d != 2*M %d", sum, 2*g.M())
	}
}

func TestLabelFrequencies(t *testing.T) {
	g := testGraph(t)
	f := g.LabelFrequencies()
	if f[0] != 1 || f[1] != 2 || f[2] != 1 {
		t.Errorf("frequencies = %v", f)
	}
	if g.DistinctLabels() != 3 {
		t.Errorf("DistinctLabels = %d, want 3", g.DistinctLabels())
	}
}

func TestVerticesByLabel(t *testing.T) {
	g := testGraph(t)
	idx := g.VerticesByLabel()
	if len(idx[1]) != 2 || idx[1][0] != 1 || idx[1][1] != 3 {
		t.Errorf("VerticesByLabel()[1] = %v, want [1 3]", idx[1])
	}
}

// TestLabelRank: a label's rank is its position in LabelValues, and
// VerticesWithLabel is that rank's range of the label index; a label no
// vertex carries has neither, wherever it falls among the ones present.
func TestLabelRank(t *testing.T) {
	wide := MustNew("wide", []Label{4096, 3, 1 << 20, 4095, 3, 0, 4096}, nil)
	low := MustNew("low", []Label{7, 5, 7}, nil)
	for _, tc := range []struct {
		g        *Graph
		l        Label
		rank     int
		ok       bool
		vertices []int32
	}{
		{wide, 0, 0, true, []int32{5}},
		{wide, 3, 1, true, []int32{1, 4}},
		{wide, 4095, 2, true, []int32{3}},
		{wide, 4096, 3, true, []int32{0, 6}},
		{wide, 1 << 20, 4, true, []int32{2}},
		{wide, 1, 0, false, nil},         // between
		{wide, 4097, 0, false, nil},      // between
		{wide, 1<<20 + 1, 0, false, nil}, // above
		{low, 5, 0, true, []int32{1}},
		{low, 7, 1, true, []int32{0, 2}},
		{low, 0, 0, false, nil}, // below
		{low, 6, 0, false, nil}, // between
		{low, 8, 0, false, nil}, // above
		{&Graph{}, 0, 0, false, nil},
		{MustNew("empty", nil, nil), 4096, 0, false, nil},
	} {
		rank, ok := tc.g.LabelRank(tc.l)
		if ok != tc.ok || ok && (rank != tc.rank || tc.g.LabelValues()[rank] != tc.l) {
			t.Errorf("%s: LabelRank(%d) = %d, %v; want %d, %v", tc.g.Name(), tc.l, rank, ok, tc.rank, tc.ok)
		}
		if got := tc.g.VerticesWithLabel(tc.l); !slices.Equal(got, tc.vertices) {
			t.Errorf("%s: VerticesWithLabel(%d) = %v, want %v", tc.g.Name(), tc.l, got, tc.vertices)
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := testGraph(t)
	h := g.Clone("copy")
	if !g.Equal(h) {
		t.Error("clone should be Equal to original")
	}
	if h.Name() != "copy" {
		t.Errorf("clone name = %q", h.Name())
	}
	g2 := MustNew("t", []Label{0, 1, 2, 2}, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if g.Equal(g2) {
		t.Error("graphs with different labels must not be Equal")
	}
}

func TestPermuteIsIsomorphism(t *testing.T) {
	g := testGraph(t)
	perm := Permutation{2, 0, 3, 1}
	h, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if !IsIsomorphismWitness(g, h, perm) {
		t.Error("permutation must be an isomorphism witness")
	}
	// label moved with vertex
	if h.Label(2) != g.Label(0) {
		t.Errorf("label of image vertex: got %d want %d", h.Label(2), g.Label(0))
	}
}

func TestPermuteRejectsBadPermutations(t *testing.T) {
	g := testGraph(t)
	if _, err := g.Permute(Permutation{0, 1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := g.Permute(Permutation{0, 1, 2, 2}); err == nil {
		t.Error("expected non-bijection error")
	}
	if _, err := g.Permute(Permutation{0, 1, 2, 9}); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestPermutationInverseCompose(t *testing.T) {
	p := Permutation{2, 0, 3, 1}
	inv := p.Inverse()
	id := p.Compose(inv)
	for v := range id {
		if id[v] != v {
			t.Fatalf("p∘p⁻¹ not identity: %v", id)
		}
	}
}

func TestIdentityPermutation(t *testing.T) {
	g := testGraph(t)
	h := g.MustPermute(Identity(g.N()))
	if !g.Equal(h) {
		t.Error("identity permutation must produce an Equal graph")
	}
}

// Property: a random permutation always yields an isomorphism witness, and
// permuting back with the inverse recovers the original graph exactly.
func TestPermuteRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(20), 0.3, 4)
		perm := Permutation(r.Perm(g.N()))
		h := g.MustPermute(perm)
		if !IsIsomorphismWitness(g, h, perm) {
			return false
		}
		back := h.MustPermute(perm.Inverse())
		return g.Equal(back)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := MustNew("c", []Label{0, 0, 0, 0, 0}, [][2]int{{0, 1}, {3, 4}})
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3 components", comps)
	}
	if g.IsConnected() {
		t.Error("graph is not connected")
	}
	if !testGraph(t).IsConnected() {
		t.Error("test graph is connected")
	}
}

func TestEnumeratePathsCountsOnPathGraph(t *testing.T) {
	// path 0-1-2: directed simple paths of >=1 edge:
	// len1: 0-1,1-0,1-2,2-1 (4); len2: 0-1-2, 2-1-0 (2) => 6
	g := MustNew("p3", []Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}})
	count := 0
	g.EnumeratePaths(4, func(p []int32) { count++ })
	if count != 6 {
		t.Errorf("path count = %d, want 6", count)
	}
}

func TestEnumeratePathsRespectsMaxLen(t *testing.T) {
	g := MustNew("p4", []Label{0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	maxSeen := 0
	g.EnumeratePaths(2, func(p []int32) {
		if len(p)-1 > maxSeen {
			maxSeen = len(p) - 1
		}
	})
	if maxSeen != 2 {
		t.Errorf("max path edges = %d, want 2", maxSeen)
	}
}

func TestStats(t *testing.T) {
	g := testGraph(t)
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Edges != 4 {
		t.Errorf("stats nodes/edges = %d/%d", s.Nodes, s.Edges)
	}
	if s.AvgDegree != 2.0 {
		t.Errorf("avg degree = %f, want 2.0", s.AvgDegree)
	}
	wantDensity := 2.0 * 4 / (4 * 3)
	if s.Density != wantDensity {
		t.Errorf("density = %f, want %f", s.Density, wantDensity)
	}
	if !s.Connected {
		t.Error("test graph is connected")
	}
	if s.Labels != 3 {
		t.Errorf("labels = %d, want 3", s.Labels)
	}
	if s.String() == "" {
		t.Error("Stats.String should be non-empty")
	}
}

func TestDatasetStats(t *testing.T) {
	g1 := testGraph(t)
	g2 := MustNew("d", []Label{5, 5}, nil) // disconnected, new label
	ds := ComputeDatasetStats("mini", []*Graph{g1, g2})
	if ds.NumGraphs != 2 {
		t.Errorf("NumGraphs = %d", ds.NumGraphs)
	}
	if ds.NumDisconnected != 1 {
		t.Errorf("NumDisconnected = %d, want 1", ds.NumDisconnected)
	}
	if ds.Labels != 4 {
		t.Errorf("dataset labels = %d, want 4", ds.Labels)
	}
	if ds.AvgNodes != 3 {
		t.Errorf("avg nodes = %f, want 3", ds.AvgNodes)
	}
	if !strings.Contains(ds.String(), "#graphs") {
		t.Error("DatasetStats.String should mention #graphs")
	}
}

func TestIOWriteReadRoundTrip(t *testing.T) {
	g1 := testGraph(t)
	g2 := MustNew("second graph", []Label{3, 4}, [][2]int{{0, 1}})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, []*Graph{g1, g2}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d graphs, want 2", len(back))
	}
	if !back[0].Equal(g1) || !back[1].Equal(g2) {
		t.Error("round-tripped graphs differ")
	}
	if back[1].Name() != "second graph" {
		t.Errorf("name = %q", back[1].Name())
	}
}

func TestIORoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var gs []*Graph
		for i := 0; i < 1+r.Intn(3); i++ {
			gs = append(gs, randomGraph(r, 1+r.Intn(15), 0.3, 4))
		}
		var buf bytes.Buffer
		if err := WriteDataset(&buf, gs); err != nil {
			return false
		}
		back, err := ReadDataset(&buf)
		if err != nil || len(back) != len(gs) {
			return false
		}
		for i := range gs {
			if !gs[i].Equal(back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadDatasetErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"no header", "3\n"},
		{"bad vertex count", "#g\nxyz\n"},
		{"missing labels", "#g\n2\n0\n"},
		{"bad label", "#g\n1\n-5\n0\n"},
		{"bad edge count", "#g\n1\n0\nnope\n"},
		{"bad edge line", "#g\n2\n0\n0\n1\n0 1 2 3\n"},
		{"bad edge label", "#g\n2\n0\n0\n1\n0 1 x\n"},
		{"negative edge label", "#g\n2\n0\n0\n1\n0 1 -2\n"},
		{"edge out of range", "#g\n2\n0\n0\n1\n0 5\n"},
		{"duplicate edge", "#g\n2\n0\n0\n2\n0 1\n1 0\n"},
	}
	for _, c := range cases {
		if _, err := ReadDataset(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

// TestReadDatasetLabelRange: a label is read as the 32-bit value Label holds.
// The largest one loads as itself; past it, the line is refused by number —
// not wrapped to label 0 or 1, and not reported as a negative label.
func TestReadDatasetLabelRange(t *testing.T) {
	for _, c := range []struct {
		label string
		ok    bool
	}{
		{"2147483647", true},
		{"2147483648", false},
		{"4294967296", false},
		{"4294967297", false},
	} {
		for _, in := range []struct {
			what, text string
			line       int
		}{
			{"vertex", "#g\n2\n0\n" + c.label + "\n1\n0 1\n", 4},
			{"edge", "#g\n2\n0\n1\n1\n0 1 " + c.label + "\n", 6},
		} {
			gs, err := ReadDataset(strings.NewReader(in.text))
			if !c.ok {
				want := fmt.Sprintf("line %d: ", in.line)
				if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s label %s: error %v, want one from %q saying out of range", in.what, c.label, err, want)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s label %s: %v", in.what, c.label, err)
				continue
			}
			got := gs[0].Label(1)
			if in.what == "edge" {
				got = gs[0].EdgeLabel(0, 1)
			}
			if want := Label(math.MaxInt32); got != want {
				t.Errorf("%s label %s loads as %d", in.what, c.label, got)
			}
		}
	}
}

func TestReadDatasetEmpty(t *testing.T) {
	gs, err := ReadDataset(strings.NewReader("\n \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 0 {
		t.Errorf("expected no graphs, got %d", len(gs))
	}
}

// randomGraph builds a G(n,p)-style labeled graph for tests.
func randomGraph(r *rand.Rand, n int, p float64, labels int) *Graph {
	b := NewBuilder("rand")
	for i := 0; i < n; i++ {
		b.AddVertex(Label(r.Intn(labels)))
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
