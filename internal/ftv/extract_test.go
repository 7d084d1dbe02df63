package ftv

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
)

// find returns the position of the feature with the given label sequence.
func find(f *Features, labels []graph.Label) (int, bool) {
	for i := 0; i < f.Len(); i++ {
		if slices.Equal(f.AppendLabels(nil, i), labels) {
			return i, true
		}
	}
	return 0, false
}

// canonicalView is an extraction as the oracle states it: every feature's
// labels, count and locations, in the order Canonical gives — what stays the
// same whichever trie the features' slots are in.
func canonicalView(f *Features) []oracleFeature {
	out := make([]oracleFeature, 0, f.Len())
	for _, i := range f.Canonical() {
		out = append(out, oracleFeature{labels: f.AppendLabels(nil, int(i)), count: f.Count(int(i)), locs: f.Locations(int(i))})
	}
	return out
}

// oracleFeature is one feature as the naive extractor sees it.
type oracleFeature struct {
	labels []graph.Label
	count  int32
	locs   []int32
}

// oracleExtract is the map-based extractor the trie-walking one replaced,
// kept as the differential oracle: it rebuilds the label sequence of every
// enumerated path — under the spelling it was walked in, oriented or not —
// keys a map by it and collects locations in hash sets. Features come back in
// canonical order.
func oracleExtract(g *graph.Graph, maxLen int) []oracleFeature {
	type acc struct {
		labels []graph.Label
		count  int32
		locs   map[int32]struct{}
	}
	byKey := map[string]*acc{}
	g.EnumeratePaths(maxLen, func(path []int32) {
		labels := make([]graph.Label, len(path))
		for i, v := range path {
			labels[i] = g.Label(int(v))
		}
		key := fmt.Sprint(labels)
		a := byKey[key]
		if a == nil {
			a = &acc{labels: labels, locs: map[int32]struct{}{}}
			byKey[key] = a
		}
		a.count++
		for _, v := range path {
			a.locs[v] = struct{}{}
		}
	})
	out := make([]oracleFeature, 0, len(byKey))
	for _, a := range byKey {
		f := oracleFeature{labels: a.labels, count: a.count}
		for v := range a.locs {
			f.locs = append(f.locs, v)
		}
		slices.Sort(f.locs)
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b oracleFeature) int { return slices.Compare(a.labels, b.labels) })
	return out
}

// assertMirrorsAgree checks the invariant orientation rests on: in an
// enumeration that knows nothing of it, a label sequence and its reverse have
// equal counts and equal location sets.
func assertMirrorsAgree(t *testing.T, name string, all []oracleFeature) {
	t.Helper()
	for _, f := range all {
		mirror := slices.Clone(f.labels)
		slices.Reverse(mirror)
		at, ok := slices.BinarySearchFunc(all, mirror, func(o oracleFeature, l []graph.Label) int { return slices.Compare(o.labels, l) })
		if !ok {
			t.Fatalf("%s: %v enumerated but its reverse never", name, f.labels)
		}
		if m := all[at]; m.count != f.count || !slices.Equal(m.locs, f.locs) {
			t.Fatalf("%s: %v has (%d, %v) but its reverse (%d, %v)", name, f.labels, f.count, f.locs, m.count, m.locs)
		}
	}
}

// oracleWant is what an extraction of g must return: the oracle's features
// under their oriented spellings, after checking the mirrors agree.
func oracleWant(t *testing.T, name string, g *graph.Graph, maxLen int) []oracleFeature {
	t.Helper()
	all := oracleExtract(g, maxLen)
	assertMirrorsAgree(t, name, all)
	var want []oracleFeature
	for _, f := range all {
		if Oriented(f.labels) {
			want = append(want, f)
		}
	}
	return want
}

func assertFeatures(t *testing.T, name string, got *Features, want []oracleFeature, maxLen int, withLocs bool) {
	t.Helper()
	view := canonicalView(got)
	if got.Len() != len(want) || len(view) != len(want) {
		t.Fatalf("%s maxLen=%d locs=%v: %d features, %d in canonical order, oracle has %d", name, maxLen, withLocs, got.Len(), len(view), len(want))
	}
	for i, g := range view {
		// Equal label sequences at equal positions: Canonical's order is the
		// oracle's sorted order, and each feature is there once.
		w := want[i]
		if !slices.Equal(g.labels, w.labels) || g.count != w.count {
			t.Fatalf("%s maxLen=%d: canonical feature %d = (%v, %d), oracle (%v, %d)", name, maxLen, i, g.labels, g.count, w.labels, w.count)
		}
		if withLocs && !slices.Equal(g.locs, w.locs) {
			t.Fatalf("%s maxLen=%d: feature %v locations %v, oracle %v", name, maxLen, w.labels, g.locs, w.locs)
		}
		if !withLocs && g.locs != nil {
			t.Fatalf("%s: locations reported though not tracked", name)
		}
	}
}

func assertMatchesOracle(t *testing.T, name string, g *graph.Graph, maxLen int) {
	t.Helper()
	want := oracleWant(t, name, g, maxLen)
	assertFeatures(t, name, ExtractFeatures(g, maxLen, false), want, maxLen, false)
	eachLocationRule(func(rule string) {
		assertFeatures(t, name+", locations "+rule, ExtractFeatures(g, maxLen, true), want, maxLen, true)
	})
}

// eachLocationRule calls f once with every extraction with locations taking
// its full-length sets from both ends of each path wherever it can (lastTwo),
// and once with it stepping through every level, so that each way is checked
// whatever the graph's label runs (bothEndsMinRun).
func eachLocationRule(f func(rule string)) {
	defer func(run float64) { bothEndsMinRun = run }(bothEndsMinRun)
	for _, rule := range []struct {
		name string
		run  float64
	}{{"from both ends", 0}, {"by the walk", math.Inf(1)}} {
		bothEndsMinRun = rule.run
		f(rule.name)
	}
}

// wideLabels spans the label width: a run compare that looked at the low 12 or
// 20 bits only would confuse two of them.
var wideLabels = []graph.Label{0, 4095, 4096, 1 << 20}

// runCases are the inputs the extractor's run-at-a-time walk can get wrong,
// over wideLabels (labelled by index into it) so that they also seed
// FuzzExtractFeatures.
func runCases() map[string]*graph.Graph {
	build := func(labels []int, edges [][2]int) *graph.Graph {
		ls := make([]graph.Label, len(labels))
		for v, l := range labels {
			ls[v] = wideLabels[l]
		}
		return graph.MustNew("case", ls, edges)
	}
	clique := func(labels ...int) *graph.Graph {
		var edges [][2]int
		for u := range labels {
			for v := u + 1; v < len(labels); v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
		return build(labels, edges)
	}
	cycle := func(labels ...int) *graph.Graph {
		var edges [][2]int
		for v := range labels {
			edges = append(edges, [2]int{v, (v + 1) % len(labels)})
		}
		return build(labels, edges)
	}
	path := func(labels ...int) *graph.Graph {
		var edges [][2]int
		for v := 1; v < len(labels); v++ {
			edges = append(edges, [2]int{v - 1, v})
		}
		return build(labels, edges)
	}
	cases := map[string]*graph.Graph{
		// One label: every spelling is a palindrome, no run is a mirror.
		"one-label-K6":   clique(2, 2, 2, 2, 2, 2),
		"one-label-C5":   cycle(1, 1, 1, 1, 1),
		"one-label-star": build([]int{3, 3, 3, 3, 3, 3}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}),
		// Leaf neighbours already on the path, the start vertex included.
		"two-label-K6": clique(0, 3, 0, 3, 0, 3),
		// The start vertex carries the largest label: the whole leaf level is
		// skipped but for the runs labelled like it.
		"largest-label-start": build([]int{3, 0, 1, 3, 0, 3}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {1, 4}}),
		// Equal end labels: the inner segment alone decides.
		"inner-ABCA":  path(0, 1, 2, 0),
		"inner-ACBA":  path(0, 2, 1, 0),
		"inner-cycle": cycle(0, 1, 2, 0, 2, 1),
		// Shorter than any maxLen above 2.
		"short-path": path(1, 0, 1),
	}
	// Two labels over the octahedron, every edge on triangles and 4-cycles:
	// the last two levels' count takes out both a run's members on the path
	// and the path vertices its other members neighbour, of either label.
	var octahedron [][2]int
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if v != u^1 {
				octahedron = append(octahedron, [2]int{u, v})
			}
		}
	}
	cases["two-label-octahedron"] = build([]int{0, 0, 3, 0, 3, 3}, octahedron)
	for k := 3; k <= 7; k++ { // C_k closes on the start vertex at maxLen k-1
		labels := make([]int, k)
		for v := range labels {
			labels[v] = v % 2 * 2
		}
		cases[fmt.Sprintf("two-label-C%d", k)] = cycle(labels...)
	}
	return cases
}

// TestExtractFeaturesMatchesOracle: the trie-walking extractor and the naive
// map-based one agree on (labels, count, locations) of every oriented
// spelling, and the naive one finds nothing under a mirror spelling that its
// oriented twin lacks — on random graphs for maxLen 1..6, with labels of any
// width, at the 63/64/65-vertex bitset word edges, on edgeless and empty graphs, and on
// large many-label graphs, where the location sets of rare features stay
// lists and those of common ones spill to bitset rows within one extraction
// and full-length locations are read from the adjacency rather than from
// both ends; on runCases and random graphs over wideLabels; and at the
// maxLen where the last two levels' path bits run out.
func TestExtractFeaturesMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	full := func(int) graph.Label { return wideLabels[r.Intn(len(wideLabels))] }
	small := func(int) graph.Label { return graph.Label(r.Intn(3)) }
	wide := func(int) graph.Label { return graph.Label(4090 + r.Intn(12)) } // straddles 4095
	mixed := func(int) graph.Label {
		if r.Intn(2) == 0 {
			return graph.Label(r.Intn(2))
		}
		return graph.Label(1<<20 + r.Intn(2))
	}
	for maxLen := 1; maxLen <= 6; maxLen++ {
		for _, n := range []int{2, 9, 30, 63, 64, 65} {
			assertMatchesOracle(t, fmt.Sprintf("small-%d", n), difftest.Sparse(r, fmt.Sprintf("rand-%d", n), n, 2.5, small), maxLen)
			assertMatchesOracle(t, fmt.Sprintf("wide-%d", n), difftest.Sparse(r, fmt.Sprintf("rand-%d", n), n, 2.5, wide), maxLen)
		}
		assertMatchesOracle(t, "mixed-40", difftest.Sparse(r, "rand-40", 40, 3, mixed), maxLen)
		assertMatchesOracle(t, "full-width-30", difftest.Sparse(r, "rand-30", 30, 3, full), maxLen)
		for name, g := range runCases() {
			assertMatchesOracle(t, name, g, maxLen)
		}
		assertMatchesOracle(t, "dense-12", difftest.Sparse(r, "rand-12", 12, 6, small), maxLen)
		assertMatchesOracle(t, "edgeless", graph.MustNew("edgeless", []graph.Label{0, 1, 1}, nil), maxLen)
		assertMatchesOracle(t, "empty", graph.MustNew("empty", nil, nil), maxLen)
	}
	// A 70-vertex path with a pendant triangle on vertices 63 and 64: at
	// maxLen 66 the last two levels are counted at depth 64, where the
	// triangle's apex neighbours the path's 64th vertex, the last position a
	// word of path bits holds; from maxLen 67 on the walk steps through every
	// level.
	long := make([]int, 71)
	var edges [][2]int
	for v := 1; v < 70; v++ {
		long[v] = v % 3 / 2 * 3
		edges = append(edges, [2]int{v - 1, v})
	}
	edges = append(edges, [2]int{63, 70}, [2]int{64, 70})
	ls := make([]graph.Label, len(long))
	for v, l := range long {
		ls[v] = wideLabels[l]
	}
	for _, maxLen := range []int{66, 67} {
		assertMatchesOracle(t, "long-path", graph.MustNew("long", ls, edges), maxLen)
	}
	// Half the vertices share label 0, the rest spread over 200 labels: the
	// all-zero features recur thousands of times, most others once or twice.
	skewed := func(int) graph.Label { return graph.Label(max(0, r.Intn(400)-199)) }
	many := func(int) graph.Label { return graph.Label(r.Intn(300)) }
	for maxLen := 1; maxLen <= 4; maxLen++ {
		assertMatchesOracle(t, "skewed-1500", difftest.Sparse(r, "rand-1500", 1500, 3, skewed), maxLen)
		assertMatchesOracle(t, "sparse-3000", difftest.Sparse(r, "rand-3000", 3000, 3, many), maxLen)
	}
}

// TestMirrorSpellingsAgree runs the same two checks where orientation is most
// likely to go wrong: both generated dataset shapes, and graphs whose label
// runs are palindromes, constant, or barely there.
func TestMirrorSpellingsAgree(t *testing.T) {
	cases := map[string]*graph.Graph{
		"single-edge":      graph.MustNew("e", []graph.Label{3, 1}, [][2]int{{0, 1}}),
		"single-edge-same": graph.MustNew("e", []graph.Label{2, 2}, [][2]int{{0, 1}}),
		"isolated":         graph.MustNew("i", []graph.Label{0, 1, 0, 1, 2}, [][2]int{{1, 2}}),
		"palindrome-path":  graph.MustNew("p", []graph.Label{1, 2, 3, 2, 1}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		"palindrome-cycle": graph.MustNew("c", []graph.Label{1, 2, 1, 2, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}),
		"near-palindrome":  graph.MustNew("n", []graph.Label{1, 2, 2, 1, 3}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}),
		"one-label-clique": graph.MustNew("k", []graph.Label{7, 7, 7, 7, 7}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}),
	}
	for name, g := range cases {
		for maxLen := 1; maxLen <= 6; maxLen++ {
			assertMatchesOracle(t, name, g, maxLen)
		}
	}
	// The generated shapes hold millions of paths of six edges, so they stop
	// at five but for one graph of each.
	generated := map[string]*graph.Graph{}
	for i, g := range gen.Synthetic(gen.SyntheticConfig{NumGraphs: 6, AvgNodes: 24, NodeSpread: 10, Density: 0.12, Labels: 3}, 21) {
		generated[fmt.Sprintf("synthetic-%d", i)] = g
	}
	for i, g := range gen.PPI(gen.PPIConfig{NumGraphs: 4, AvgNodes: 40, NodeSpread: 10, AvgDegree: 5, Labels: 4, LabelsPer: 3, IsolatedPct: 0.1}, 22) {
		generated[fmt.Sprintf("ppi-%d", i)] = g
	}
	for name, g := range generated {
		for maxLen := 1; maxLen <= 5; maxLen++ {
			assertMatchesOracle(t, name, g, maxLen)
		}
	}
	assertMatchesOracle(t, "synthetic-0", generated["synthetic-0"], 6)
	assertMatchesOracle(t, "ppi-0", generated["ppi-0"], 6)
}

// TestExtractLocationForms pins the premise of the large-graph cases above:
// such an extraction really holds location sets in both forms, and the
// scratch of a large sparse graph stays proportional to what its paths touch
// rather than to features × vertices.
func TestExtractLocationForms(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := difftest.Sparse(r, "rand-1500", 1500, 3, func(int) graph.Label { return graph.Label(max(0, r.Intn(400)-199)) })
	e := newExtractor(g.LabelValues())
	if _, err := e.extract(context.Background(), g, 4, true); err != nil {
		t.Fatal(err)
	}
	lists, rows := 0, len(e.rows)/e.words
	for _, l := range e.lists {
		if len(l) > 0 { // a spilled slot's list is emptied
			lists++
		}
	}
	if lists == 0 || rows == 0 {
		t.Fatalf("%d list-form and %d row-form location sets, want both", lists, rows)
	}
	if slots := e.trie.Len(); rows > slots/10 {
		t.Errorf("%d of %d slots spilled to a %d-word row; a sparse many-label graph should keep most as lists", rows, slots, e.words)
	}
}

// complete is K_n, vertex v labelled v mod labels.
func complete(n, labels int) *graph.Graph {
	b := graph.NewBuilder("clique")
	for v := 0; v < n; v++ {
		b.AddVertex(graph.Label(v % labels))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := b.AddEdge(u, v); err != nil {
				panic(err) // both endpoints exist
			}
		}
	}
	return b.MustBuild()
}

// flipContext reports cancellation from its n-th Err call on: a context that
// is cancelled while an extraction is under way.
type flipContext struct {
	context.Context
	calls atomic.Int32
	n     int32
}

func (c *flipContext) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestExtractFeaturesCancelMidGraph: the periodic check inside the
// enumeration notices a cancellation that arrives after extraction started.
// K24 holds about 1.7 billion simple paths of up to 6 edges, so returning at
// all within the test timeout means the walk was abandoned.
func TestExtractFeaturesCancelMidGraph(t *testing.T) {
	for _, withLocs := range []bool{false, true} {
		ctx := &flipContext{Context: context.Background(), n: 3} // upfront check, one periodic check, then cancelled
		feats, err := ExtractFeaturesContext(ctx, complete(24, 2), 6, withLocs)
		if !errors.Is(err, context.Canceled) || feats != nil {
			t.Fatalf("locations=%v: got (%v, %v), want (nil, context.Canceled)", withLocs, feats, err)
		}
		if got := ctx.calls.Load(); got < 3 || got > 4 {
			t.Errorf("locations=%v: %d context checks, want the walk to stop at the third", withLocs, got)
		}
	}
}

// fuzzGraph decodes one graph from the front of a fuzz input — a vertex
// count of up to 24, that many labels from wideLabels, an edge count of up to
// 40, which keeps the oracle's enumeration of a dense input to a fraction of a
// second, and that many vertex pairs — and returns it with the rest of the
// input.
func fuzzGraph(data []byte) (*graph.Graph, []byte) {
	b := graph.NewBuilder("fuzz")
	if len(data) == 0 {
		return b.MustBuild(), nil
	}
	n := min(int(data[0])%25, len(data)-1)
	for _, l := range data[1 : 1+n] {
		b.AddVertex(wideLabels[int(l)%len(wideLabels)])
	}
	data = data[1+n:]
	if len(data) == 0 {
		return b.MustBuild(), nil
	}
	pairs := min(int(data[0])%41, (len(data)-1)/2)
	for _, e := range slices.Collect(slices.Chunk(data[1:1+2*pairs], 2)) {
		if u, v := int(e[0])%max(n, 1), int(e[1])%max(n, 1); u != v && !b.HasEdgePending(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err) // both endpoints exist
			}
		}
	}
	return b.MustBuild(), data[1+2*pairs:]
}

// encodeFuzzGraph is fuzzGraph's inverse for the graphs of runCases.
func encodeFuzzGraph(data []byte, g *graph.Graph) []byte {
	data = append(data, byte(g.N()))
	for _, l := range g.Labels() {
		data = append(data, byte(slices.Index(wideLabels, l)))
	}
	data = append(data, byte(g.M()))
	g.Edges(func(u, v int) { data = append(data, byte(u), byte(v)) })
	return data
}

// FuzzExtractFeatures holds the extractor to the oracle on whatever two small
// graphs the input spells — maxLen 1..5 and locations on or off, then the
// graphs — seeded with runCases at every maxLen, each followed by the next
// case. The first graph is extracted on its own; then both are extracted on a
// one-worker pool, where one extractor takes them one after the other and the
// second walks the trie the first grew: a count or a location set the first
// left behind shows in the second's features.
func FuzzExtractFeatures(f *testing.F) {
	cases := runCases()
	names := slices.Sorted(maps.Keys(cases))
	for k, name := range names {
		data := encodeFuzzGraph([]byte{0, 0}, cases[name])
		data = encodeFuzzGraph(data, cases[names[(k+1)%len(names)]])
		for maxLen := 1; maxLen <= 5; maxLen++ {
			for locs := byte(0); locs <= 1; locs++ {
				data[0], data[1] = byte(maxLen-1), locs
				f.Add(slices.Clone(data))
			}
		}
	}
	pool := exec.New(1)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		maxLen, withLocs := int(data[0])%5+1, data[1]&1 == 1
		first, rest := fuzzGraph(data[2:])
		second, _ := fuzzGraph(rest)
		want := [][]oracleFeature{oracleWant(t, "first", first, maxLen), oracleWant(t, "second", second, maxLen)}
		if withLocs {
			eachLocationRule(func(rule string) {
				assertFeatures(t, "first alone, locations "+rule, ExtractFeatures(first, maxLen, true), want[0], maxLen, true)
			})
		} else {
			assertFeatures(t, "first alone", ExtractFeatures(first, maxLen, false), want[0], maxLen, false)
		}
		both, err := ExtractDatasetFeatures(context.Background(), pool, []*graph.Graph{first, second}, maxLen, withLocs)
		if err != nil {
			t.Fatal(err)
		}
		assertFeatures(t, "first on a shared extractor", both[0], want[0], maxLen, withLocs)
		assertFeatures(t, "second on a shared extractor", both[1], want[1], maxLen, withLocs)
	})
}
