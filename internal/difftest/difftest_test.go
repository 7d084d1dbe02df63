package difftest

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/vf2"
)

// draw is everything the generator makes from seed, as dataset text.
func draw(seed int64) string {
	var s strings.Builder
	for _, d := range append(Datasets(seed), Draw(seed)) {
		qs := Queries(rand.New(rand.NewSource(seed)), d.Graphs, 12)
		s.WriteString(d.Name + "\n" + repro(d.Graphs, union(qs[0], qs[1])))
		for _, q := range qs {
			s.WriteString(repro(nil, q))
		}
	}
	return s.String()
}

// TestGeneratorIsDeterministic: one seed, drawn twice, gives byte-identical
// text for every dataset and query, and another seed does not.
func TestGeneratorIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if a, b := draw(seed), draw(seed); a != b {
			t.Fatalf("seed %d drew two different cases", seed)
		}
	}
	if draw(1) == draw(2) {
		t.Fatal("seeds 1 and 2 drew the same cases")
	}
}

// TestSparse pins Sparse's draws, which the ftv, spath and gql tests' cases
// are: vertex v is labelled label(v), and of the ⌊degree·n/2⌋ vertex pairs
// the loop (5, 5) and the repeat (2, 1) are skipped.
func TestSparse(t *testing.T) {
	g := Sparse(rand.New(rand.NewSource(1)), "s", 6, 2, func(v int) graph.Label { return graph.Label(v % 2) })
	want := graph.MustNew("s", []graph.Label{0, 1, 0, 1, 0, 1}, [][2]int{{5, 3}, {1, 0}, {1, 2}, {4, 0}})
	if !g.Equal(want) || g.Name() != "s" {
		t.Errorf("Sparse drew %v, want %v", g, want)
	}
}

// TestShapes: every dataset shape is there and holds what its name promises,
// and Queries draws each query kind.
func TestShapes(t *testing.T) {
	byName := map[string][]*graph.Graph{}
	for _, d := range Datasets(1) {
		if len(d.Graphs) == 0 {
			t.Errorf("%s: no graphs", d.Name)
		}
		byName[d.Name] = d.Graphs
	}
	has := func(name string, ok func(g *graph.Graph) bool) {
		if !slices.ContainsFunc(byName[name], ok) {
			t.Errorf("%s: no graph of the promised shape", name)
		}
	}
	for _, n := range []int{63, 64, 65} {
		has("word-sized", func(g *graph.Graph) bool { return g.N() == n })
	}
	for _, l := range []graph.Label{4095, 4096, 65535, 65536} {
		has("wide-labels", func(g *graph.Graph) bool { return slices.Contains(g.Labels(), l) })
	}
	for _, leaves := range []int{255, 256} {
		has("stars", func(g *graph.Graph) bool { return g.N() == leaves+1 && g.Degree(0) == leaves })
	}
	has("tombstones", func(g *graph.Graph) bool { return g.N() == 0 })
	has("isolated", func(g *graph.Graph) bool { return g.M() == 0 })
	has("isolated", func(g *graph.Graph) bool {
		return g.M() > 0 && slices.ContainsFunc(g.ConnectedComponents(), func(c []int32) bool { return len(c) == 1 })
	})

	ds := byName["collisions"]
	qs := Queries(rand.New(rand.NewSource(1)), ds, 8)
	kinds := map[string]bool{}
	for _, q := range qs {
		kinds[q.Name()] = true
		if q.Name() == "absent" && len(Want(ds, q)) != 0 {
			t.Errorf("a query with a label the dataset lacks is contained in %v", Want(ds, q))
		}
	}
	for _, name := range []string{"union", "single", "absent"} {
		if !kinds[name] {
			t.Errorf("no %q query among %v", name, kinds)
		}
	}
}

// TestWantIsContainment: the oracle's shortcuts — the components searched
// alone, the renumbering — rule out no graph VF2 finds the query in, and
// admit none it does not, over every shape.
func TestWantIsContainment(t *testing.T) {
	for _, d := range Datasets(2) {
		for _, q := range Queries(rand.New(rand.NewSource(2)), d.Graphs, 8) {
			want := Want(d.Graphs, q)
			var vf []int
			for id, g := range d.Graphs {
				if embs, err := vf2.Match(context.Background(), q, g, 1); err != nil {
					t.Fatal(err)
				} else if len(embs) > 0 {
					vf = append(vf, id)
				}
			}
			if !slices.Equal(want, vf) {
				t.Errorf("%s: %s: the oracle answers %v, VF2 %v", d.Name, q.Name(), want, vf)
			}
		}
	}
}

// TestShrinkCatchesAWrongOracle injects an oracle that drops graph 0
// whenever the query has two edges or more: held against VF2 it is caught,
// and the case shrinks to one graph and a two-edge query.
func TestShrinkCatchesAWrongOracle(t *testing.T) {
	wrong := func(ds []*graph.Graph, q *graph.Graph) []int {
		want := Want(ds, q)
		if q.M() >= 2 && len(want) > 0 && want[0] == 0 {
			want = want[1:]
		}
		return want
	}
	fails := func(ds []*graph.Graph, q *graph.Graph) bool {
		var got []int
		for id, g := range ds {
			if embs, _ := vf2.Match(context.Background(), q, g, 1); len(embs) > 0 {
				got = append(got, id)
			}
		}
		return !slices.Equal(got, wrong(ds, q))
	}
	ds := Datasets(3)[0].Graphs
	var failing *graph.Graph
	for _, q := range Queries(rand.New(rand.NewSource(3)), ds, 40) {
		if q.M() >= 3 && fails(ds, q) {
			failing = q
			break
		}
	}
	if failing == nil {
		t.Fatal("the wrong oracle was never caught")
	}
	sds, sq := shrink(ds, failing, fails)
	if len(sds) != 1 || sq.M() != 2 || !fails(sds, sq) {
		t.Fatalf("shrunk to %d graphs and a %d-edge query; want one graph and a 2-edge query:\n%s", len(sds), sq.M(), repro(sds, sq))
	}
	text := repro(sds, sq)
	back, err := graph.ReadDataset(strings.NewReader(strings.NewReplacer("dataset:\n", "", "query:\n", "").Replace(text)))
	if err != nil || len(back) != 2 || !back[0].Equal(sds[0]) || !back[1].Equal(sq) {
		t.Fatalf("the repro does not read back as the dataset and the query: %v\n%s", err, text)
	}
}
