package rewrite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/graph"
)

// fig5Graph reconstructs the spirit of Fig. 5 of the paper: seven vertices
// with labels A A A B B C C (A=0, B=1, C=2) and stored-graph frequencies
// A=20, B=15, C=10.
func fig5Graph(t *testing.T) (*graph.Graph, Frequencies) {
	t.Helper()
	const A, B, C = 0, 1, 2
	g, err := graph.New("fig5",
		[]graph.Label{A, A, A, B, B, C, C},
		[][2]int{{0, 1}, {0, 3}, {1, 2}, {1, 4}, {2, 5}, {3, 6}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return g, Frequencies{A: 20, B: 15, C: 10}
}

// apply returns the rewriting's permuted copy of g and its permutation.
func apply(g *graph.Graph, f Frequencies, k Kind, seed int64) (*graph.Graph, graph.Permutation) {
	perm := Compute(g, f, k, seed)
	return g.MustPermute(perm), perm
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Orig: "Orig", ILF: "ILF", IND: "IND", DND: "DND",
		ILFIND: "ILF+IND", ILFDND: "ILF+DND", Random: "Random",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Orig, ILF, IND, DND, ILFIND, ILFDND, Random} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func TestOrigIsIdentity(t *testing.T) {
	g, f := fig5Graph(t)
	perm := Compute(g, f, Orig, 0)
	for v, nw := range perm {
		if v != nw {
			t.Fatalf("Orig permutation not identity: %v", perm)
		}
	}
}

// ILF invariant: new IDs are ordered by non-decreasing stored-graph label
// frequency. With freqs C(10) < B(15) < A(20): C-vertices get IDs {0,1},
// B-vertices {2,3}, A-vertices {4,5,6}.
func TestILFOrdersByLabelFrequency(t *testing.T) {
	g, f := fig5Graph(t)
	h, perm := apply(g, f, ILF, 0)
	if !graph.IsIsomorphismWitness(g, h, perm) {
		t.Fatal("ILF must be an isomorphism")
	}
	wantLabelAt := []graph.Label{2, 2, 1, 1, 0, 0, 0} // C C B B A A A
	for v, want := range wantLabelAt {
		if h.Label(v) != want {
			t.Errorf("ILF: label at new ID %d = %d, want %d", v, h.Label(v), want)
		}
	}
}

func TestINDOrdersByIncreasingDegree(t *testing.T) {
	g, f := fig5Graph(t)
	h, perm := apply(g, f, IND, 0)
	if !graph.IsIsomorphismWitness(g, h, perm) {
		t.Fatal("IND must be an isomorphism")
	}
	for v := 1; v < h.N(); v++ {
		if h.Degree(v) < h.Degree(v-1) {
			t.Fatalf("IND: degree at ID %d (%d) < degree at ID %d (%d)",
				v, h.Degree(v), v-1, h.Degree(v-1))
		}
	}
}

func TestDNDOrdersByDecreasingDegree(t *testing.T) {
	g, f := fig5Graph(t)
	h, perm := apply(g, f, DND, 0)
	if !graph.IsIsomorphismWitness(g, h, perm) {
		t.Fatal("DND must be an isomorphism")
	}
	for v := 1; v < h.N(); v++ {
		if h.Degree(v) > h.Degree(v-1) {
			t.Fatalf("DND: degree at ID %d (%d) > degree at ID %d (%d)",
				v, h.Degree(v), v-1, h.Degree(v-1))
		}
	}
}

// ILF+IND and ILF+DND must respect label frequency first, then degree
// within equal-frequency groups. The paper notes any ILF+IND rewriting is
// also a valid ILF rewriting.
func TestILFCombosRespectBothKeys(t *testing.T) {
	g, f := fig5Graph(t)
	for _, k := range []Kind{ILFIND, ILFDND} {
		h, perm := apply(g, f, k, 0)
		if !graph.IsIsomorphismWitness(g, h, perm) {
			t.Fatalf("%v must be an isomorphism", k)
		}
		// label-frequency blocks identical to plain ILF
		wantLabelAt := []graph.Label{2, 2, 1, 1, 0, 0, 0}
		for v, want := range wantLabelAt {
			if h.Label(v) != want {
				t.Errorf("%v: label at new ID %d = %d, want %d", k, v, h.Label(v), want)
			}
		}
		// within each block, degree monotone (increasing for ILFIND,
		// decreasing for ILFDND)
		blocks := [][2]int{{0, 2}, {2, 4}, {4, 7}}
		for _, blk := range blocks {
			for v := blk[0] + 1; v < blk[1]; v++ {
				if k == ILFIND && h.Degree(v) < h.Degree(v-1) {
					t.Errorf("ILF+IND: degrees not increasing within block at %d", v)
				}
				if k == ILFDND && h.Degree(v) > h.Degree(v-1) {
					t.Errorf("ILF+DND: degrees not decreasing within block at %d", v)
				}
			}
		}
	}
}

func TestRandomIsSeededDeterministic(t *testing.T) {
	g, _ := fig5Graph(t)
	p1 := Compute(g, nil, Random, 7)
	p2 := Compute(g, nil, Random, 7)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed must give same permutation")
		}
	}
	p3 := Compute(g, nil, Random, 8)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should (overwhelmingly) give different permutations")
	}
}

func TestAllKindsProduceValidIsomorphisms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 3+r.Intn(15), 4)
		freq := FrequenciesOf(g)
		for _, k := range []Kind{Orig, ILF, IND, DND, ILFIND, ILFDND, Random} {
			h, perm := apply(g, freq, k, seed)
			if !graph.IsIsomorphismWitness(g, h, perm) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	g, f := fig5Graph(t)
	for _, k := range Structured {
		p1 := Compute(g, f, k, 0)
		p2 := Compute(g, f, k, 0)
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%v not deterministic", k)
			}
		}
	}
}

func TestFrequenciesOfDataset(t *testing.T) {
	g1 := graph.MustNew("a", []graph.Label{0, 0, 1}, nil)
	g2 := graph.MustNew("b", []graph.Label{1, 2}, nil)
	f := FrequenciesOfDataset([]*graph.Graph{g1, g2})
	if f[0] != 2 || f[1] != 2 || f[2] != 1 {
		t.Errorf("dataset frequencies = %v", f)
	}
}

// Missing labels in the frequency map sort first (treated as frequency 0).
func TestILFMissingLabelSortsFirst(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{5, 9}, [][2]int{{0, 1}})
	f := Frequencies{5: 10} // label 9 unknown => freq 0
	h, _ := apply(g, f, ILF, 0)
	if h.Label(0) != 9 {
		t.Errorf("unknown label should receive ID 0, labels now %v", h.Labels())
	}
}

func randomConnected(r *rand.Rand, n, labels int) *graph.Graph {
	b := graph.NewBuilder("rc")
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
	}
	// random spanning tree first, then extra edges
	for v := 1; v < n; v++ {
		u := r.Intn(v)
		if err := b.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	extra := r.Intn(n)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdgePending(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return b.MustBuild()
}
