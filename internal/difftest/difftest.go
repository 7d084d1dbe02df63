// Package difftest is the differential tests' one generator, oracle and
// shrinker: the race is sound only if every contender returns the same
// answer, so the tests holding them to it share one source of cases and one
// ground truth. Datasets draws every dataset shape, the generated ones and
// the degenerate ones; Queries draws connected queries through
// workload.Extract and the shapes extraction cannot make; Want is
// containment by match.Reference, never by a matcher under test; Fail cuts
// a failing case down and reports it in graph.WriteDataset text.
// Everything drawn is a function of the seed or the random source alone.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/workload"
)

// Dataset is one generated dataset shape.
type Dataset struct {
	Name   string
	Graphs []*graph.Graph
}

// shapes are the dataset generators, in the order Datasets returns them:
// gen's Synthetic and PPI shapes at Tiny, a random shape with heavy label
// collisions, a mixed shape whose Grapes location sets take both stored
// forms, and the degenerate shapes.
var shapes = []struct {
	name string
	draw func(r *rand.Rand) []*graph.Graph
}{
	{"synthetic", func(r *rand.Rand) []*graph.Graph { return gen.Synthetic(gen.SyntheticAt(gen.Tiny), r.Int63()) }},
	{"ppi", func(r *rand.Rand) []*graph.Graph { return gen.PPI(gen.PPIAt(gen.Tiny), r.Int63()) }},
	{"collisions", func(r *rand.Rand) []*graph.Graph { return Random(r, 5, 12, 2) }},
	{"mixed", Mixed},
	{"isolated", isolated},
	{"word-sized", wordSized},
	{"wide-labels", wideLabels},
	{"stars", stars},
	{"tombstones", tombstones},
}

// Datasets returns every shape drawn from seed, each from a source of its
// own, so that one shape's draw does not depend on another's.
func Datasets(seed int64) []Dataset {
	out := make([]Dataset, len(shapes))
	for i := range shapes {
		out[i] = shape(i, seed)
	}
	return out
}

// Draw is one case's dataset: the shape a non-negative seed selects — each
// in turn as seed grows — drawn from seed.
func Draw(seed int64) Dataset {
	return shape(int(seed%int64(len(shapes))), seed)
}

func shape(i int, seed int64) Dataset {
	return Dataset{shapes[i].name, shapes[i].draw(rand.New(rand.NewSource(seed*int64(len(shapes)) + int64(i))))}
}

// Random is numGraphs graphs Graph(r, n, n/2, labels) draws.
func Random(r *rand.Rand, numGraphs, n, labels int) []*graph.Graph {
	ds := make([]*graph.Graph, numGraphs)
	for i := range ds {
		ds[i] = Graph(r, n, n/2, labels)
	}
	return ds
}

// Graph is a random connected graph of n vertices over labels labels: a
// random spanning tree plus up to extra more edges.
func Graph(r *rand.Rand, n, extra, labels int) *graph.Graph {
	b := graph.NewBuilder("g")
	for v := 0; v < n; v++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
	}
	for v := 1; v < n; v++ {
		mustEdge(b, r.Intn(v), v)
	}
	for e := 0; e < extra; e++ {
		if u, v := r.Intn(n), r.Intn(n); u != v && !b.HasEdgePending(u, v) {
			mustEdge(b, u, v)
		}
	}
	return b.MustBuild()
}

// Sparse is a random graph named name of n vertices, not always connected:
// vertex v is labelled label(v), for every vertex in turn before any edge is
// drawn, and then ⌊degree·n/2⌋ random vertex pairs each become an edge
// unless they are a loop or an edge already drawn.
func Sparse(r *rand.Rand, name string, n int, degree float64, label func(v int) graph.Label) *graph.Graph {
	b := graph.NewBuilder(name)
	for v := 0; v < n; v++ {
		b.AddVertex(label(v))
	}
	for e := 0; n > 1 && e < int(degree*float64(n)/2); e++ {
		if u, v := r.Intn(n), r.Intn(n); u != v && !b.HasEdgePending(u, v) {
			mustEdge(b, u, v)
		}
	}
	return b.MustBuild()
}

// Mixed is graphs whose Grapes location sets take both stored forms in one
// table: small or label-poor ones, whose sets are all bitset rows, and
// 70-to-140-vertex ones over many labels, most of whose features touch too
// few vertices for a row to pay, so their sets are ID lists.
func Mixed(r *rand.Rand) []*graph.Graph {
	var ds []*graph.Graph
	ds = append(ds, Random(r, 4, 10+r.Intn(30), 2)...)
	ds = append(ds, Random(r, 3, 70+r.Intn(70), 2+r.Intn(2))...)
	ds = append(ds, Random(r, 3, 70+r.Intn(70), 12+r.Intn(12))...)
	r.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// isolated is edgeless graphs and graphs with isolated vertices, some of
// whose labels occur only on an isolated vertex — a query vertex of that
// label lies on no path feature.
func isolated(r *rand.Rand) []*graph.Graph {
	ds := []*graph.Graph{
		graph.MustNew("edgeless", []graph.Label{0, 2, 2}, nil),
		graph.MustNew("one", []graph.Label{1}, nil),
		graph.MustNew("A-B, C", []graph.Label{0, 1, 2}, [][2]int{{0, 1}}),
		graph.MustNew("A-B, C-D", []graph.Label{0, 1, 2, 3}, [][2]int{{0, 1}, {2, 3}}),
	}
	for _, g := range Random(r, 3, 6+r.Intn(6), 3) {
		labels := slices.Clone(g.Labels())
		for i := 1 + r.Intn(3); i > 0; i-- {
			labels = append(labels, graph.Label(r.Intn(5)))
		}
		ds = append(ds, graph.MustNew("isolated", labels, g.EdgeList()))
	}
	return ds
}

// wordSized is graphs of 63, 64 and 65 vertices, one each side of a 64-bit
// word, over few labels, so location rows fill exactly, under and over one
// word.
func wordSized(r *rand.Rand) []*graph.Graph {
	var ds []*graph.Graph
	for _, n := range []int{63, 64, 65, 64} {
		ds = append(ds, Random(r, 1, n, 2)...)
	}
	return ds
}

// wideLabels is graphs over labels on both sides of 4095/4096 and of
// 65535/65536, where a narrow label encoding would wrap.
func wideLabels(r *rand.Rand) []*graph.Graph {
	alphabet := []graph.Label{0, 4095, 4096, 65535, 65536}
	ds := Random(r, 5, 10+r.Intn(10), len(alphabet))
	for i, g := range ds {
		labels := make([]graph.Label, g.N())
		for v := range labels {
			labels[v] = alphabet[g.Label(v)]
		}
		ds[i] = graph.MustNew("wide", labels, g.EdgeList())
	}
	return ds
}

// stars is stars of 255 and 256 leaves — either side of a one-byte count —
// beside two small random graphs. The leaves draw from eight labels: from
// three, a query of two disjoint stars costs whole-graph VF2 about 0.6 s per
// star (a straggler, not a wrong answer: it places the first star in some
// 600 000 ways before finding no room for the second).
func stars(r *rand.Rand) []*graph.Graph {
	var ds []*graph.Graph
	for _, leaves := range []int{255, 256} {
		b := graph.NewBuilder(fmt.Sprintf("star%d", leaves))
		b.AddVertex(0)
		for i := 0; i < leaves; i++ {
			mustEdge(b, 0, b.AddVertex(graph.Label(r.Intn(8))))
		}
		ds = append(ds, b.MustBuild())
	}
	return append(ds, Random(r, 2, 12, 3)...)
}

// tombstones is random graphs between zero-vertex placeholders, the graph a
// dataset store puts in a removed graph's slot.
func tombstones(r *rand.Rand) []*graph.Graph {
	var ds []*graph.Graph
	for _, g := range Random(r, 5, 8+r.Intn(6), 3) {
		if r.Intn(2) == 0 {
			ds = append(ds, graph.NewBuilder("dead").MustBuild())
		}
		ds = append(ds, g)
	}
	return append(ds, graph.NewBuilder("dead").MustBuild())
}

// Queries draws n queries over ds. Every other one is a connected query of
// one to five edges extracted from a random graph of ds with
// workload.Extract; the rest are, in turn, a disjoint union of two
// extractions, an extraction plus an isolated vertex, a single vertex, and
// an extraction with one vertex relabelled to a label ds lacks. Some graph
// of ds must have a vertex.
func Queries(r *rand.Rand, ds []*graph.Graph, n int) []*graph.Graph {
	var sources []*graph.Graph
	absent := graph.Label(0)
	for _, g := range ds {
		if g.N() > 0 {
			sources = append(sources, g)
			absent = max(absent, g.MaxLabel()+1)
		}
	}
	extract := func(maxEdges int) *graph.Graph {
		return workload.Extract(r, sources[r.Intn(len(sources))], 1+r.Intn(maxEdges))
	}
	out := make([]*graph.Graph, n)
	for i := range out {
		var q *graph.Graph
		switch {
		case i%2 == 0:
			q = extract(5)
		case i/2%4 == 0:
			q = union(extract(3), extract(2))
		case i/2%4 == 1:
			g := sources[r.Intn(len(sources))]
			q = union(extract(4), graph.MustNew("v", []graph.Label{g.Label(r.Intn(g.N()))}, nil))
		case i/2%4 == 2:
			g := sources[r.Intn(len(sources))]
			q = graph.MustNew("single", []graph.Label{g.Label(r.Intn(g.N()))}, nil)
		default:
			q = extract(3)
			labels := slices.Clone(q.Labels())
			labels[r.Intn(len(labels))] = absent
			q = graph.MustNew("absent", labels, q.EdgeList())
		}
		out[i] = q
	}
	return out
}

// Subsets is every non-empty subset of names, each in names' order.
func Subsets(names []string) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(names); mask++ {
		var set []string
		for i, name := range names {
			if mask>>i&1 == 1 {
				set = append(set, name)
			}
		}
		out = append(out, set)
	}
	return out
}

// union is a and b side by side, b's vertices renumbered after a's; edge
// labels are dropped, which no drawn query has.
func union(a, b *graph.Graph) *graph.Graph {
	edges := a.EdgeList()
	for _, e := range b.EdgeList() {
		edges = append(edges, [2]int{a.N() + e[0], a.N() + e[1]})
	}
	return graph.MustNew("union", append(slices.Clone(a.Labels()), b.Labels()...), edges)
}

// Want is the ground truth: the ascending positions in ds of the graphs
// that contain q, each decided by match.Reference — a naive search with no
// pruning, obviously right and exponential where a disjoint union's first
// component fits a graph in many ways its second does not. So each
// component of a disconnected q is searched alone first, and a graph one
// misses is ruled out. The reference searches query vertices in ID order,
// so each search renumbers its query first: smaller components first, the
// rarest label in the stored graph first, then always a neighbour of the
// vertices placed where there is one. Containment depends on neither.
func Want(ds []*graph.Graph, q *graph.Graph) []int {
	comps := q.ConnectedComponents()
	var want []int
	for id, g := range ds {
		if componentsFit(g, q, comps) && contains(g, q) {
			want = append(want, id)
		}
	}
	return want
}

// componentsFit reports whether each of q's components comps is in g, when
// q has more than one.
func componentsFit(g, q *graph.Graph, comps [][]int32) bool {
	for _, comp := range comps {
		if len(comps) > 1 && !contains(g, without(q, [2]int{-1, -1}, func(v int) bool { return !slices.Contains(comp, int32(v)) })) {
			return false
		}
	}
	return true
}

// contains is match.Reference's decision, q renumbered by searchOrder.
func contains(g, q *graph.Graph) bool {
	embs, err := match.NewReference(g).Match(context.Background(), q.MustPermute(searchOrder(q, g)), 1)
	if err != nil {
		panic(err) // unreachable: the context is never cancelled
	}
	return len(embs) > 0
}

// searchOrder is the renumbering contains gives q for a search in g.
func searchOrder(q, g *graph.Graph) graph.Permutation {
	size := make([]int, q.N())
	for _, comp := range q.ConnectedComponents() {
		for _, v := range comp {
			size[v] = len(comp)
		}
	}
	freq := func(v int) int { return len(g.VerticesWithLabel(q.Label(v))) }
	before := func(v, w int, adjacent []bool) bool {
		if adjacent[v] != adjacent[w] {
			return adjacent[v]
		}
		if size[v] != size[w] {
			return size[v] < size[w]
		}
		return freq(v) < freq(w)
	}
	perm := make(graph.Permutation, q.N())
	placed := make([]bool, q.N())
	adjacent := make([]bool, q.N())
	for next := 0; next < q.N(); next++ {
		best := -1
		for v := range perm {
			if !placed[v] && (best < 0 || before(v, best, adjacent)) {
				best = v
			}
		}
		perm[best], placed[best] = next, true
		for _, w := range q.Neighbors(best) {
			adjacent[w] = true
		}
	}
	return perm
}

// shrink cuts a case that fails down to a smaller one that still fails: it
// drops graphs of ds, then edges of q — with any endpoint the cut leaves
// isolated — and isolated vertices of q, one at a time while fails holds,
// until no single cut keeps the failure. fails must be true of the case
// given.
func shrink(ds []*graph.Graph, q *graph.Graph, fails func(ds []*graph.Graph, q *graph.Graph) bool) ([]*graph.Graph, *graph.Graph) {
	for shrunk := true; shrunk; {
		shrunk = false
		for i := len(ds) - 1; i >= 0; i-- {
			if cut := slices.Delete(slices.Clone(ds), i, i+1); fails(cut, q) {
				ds, shrunk = cut, true
			}
		}
	}
	for shrunk := true; shrunk; {
		shrunk = false
		for _, cut := range cuts(q) {
			if fails(ds, cut) {
				q, shrunk = cut, true
				break
			}
		}
	}
	return ds, q
}

// cuts is every query one shrink step from q: q without one edge (and the
// endpoints that edge alone held), then q without one isolated vertex. No
// cut leaves a query without vertices.
func cuts(q *graph.Graph) []*graph.Graph {
	var out []*graph.Graph
	q.Edges(func(u, v int) {
		if cut := without(q, [2]int{u, v}, func(w int) bool {
			return (w == u || w == v) && q.Degree(w) == 1
		}); cut.N() > 0 {
			out = append(out, cut)
		}
	})
	for v := 0; v < q.N(); v++ {
		if q.Degree(v) == 0 && q.N() > 1 {
			out = append(out, without(q, [2]int{-1, -1}, func(w int) bool { return w == v }))
		}
	}
	return out
}

// without is q less the edge cut and the vertices drop selects, renumbered
// densely in order.
func without(q *graph.Graph, cut [2]int, drop func(v int) bool) *graph.Graph {
	b := graph.NewBuilder(q.Name())
	id := make([]int, q.N())
	for v := range id {
		id[v] = -1
		if !drop(v) {
			id[v] = b.AddVertex(q.Label(v))
		}
	}
	q.LabeledEdges(func(u, v int, l graph.Label) {
		if [2]int{u, v} != cut && id[u] >= 0 && id[v] >= 0 {
			if err := b.AddLabeledEdge(id[u], id[v], l); err != nil {
				panic(err) // unreachable: a subset of q's distinct edges
			}
		}
	})
	return b.MustBuild()
}

// repro is a case in graph.WriteDataset text: the dataset, then the query.
func repro(ds []*graph.Graph, q *graph.Graph) string {
	var s strings.Builder
	s.WriteString("dataset:\n")
	_ = graph.WriteDataset(&s, ds) // a strings.Builder does not fail
	s.WriteString("query:\n")
	_ = graph.WriteGraph(&s, q)
	return s.String()
}

// Fail shrinks a failing case with fails and fails t with what and the
// shrunk case's repro.
func Fail(t testing.TB, what string, ds []*graph.Graph, q *graph.Graph, fails func(ds []*graph.Graph, q *graph.Graph) bool) {
	t.Helper()
	ds, q = shrink(ds, q, fails)
	t.Fatalf("%s; shrunk to %d graphs and a %d-edge query:\n%s", what, len(ds), q.M(), repro(ds, q))
}

func mustEdge(b *graph.Builder, u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err) // unreachable: callers add distinct edges between existing vertices
	}
}
