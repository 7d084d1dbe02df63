package spath

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/workload"
)

// oracleSignature is the map-based per-vertex BFS the index was first built
// with, kept as the oracle: sig[d-1] maps label -> number of vertices with
// that label within distance 1..d of v.
func oracleSignature(g *graph.Graph, v, radius int) []map[graph.Label]int32 {
	dist := map[int32]int{int32(v): 0}
	for queue := []int32{int32(v)}; len(queue) > 0; queue = queue[1:] {
		x := queue[0]
		if dist[x] == radius {
			continue
		}
		for _, w := range g.Neighbors(int(x)) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[x] + 1
				queue = append(queue, w)
			}
		}
	}
	sig := make([]map[graph.Label]int32, radius)
	for d := range sig {
		sig[d] = make(map[graph.Label]int32)
	}
	for w, d := range dist {
		for k := max(d, 1); d >= 1 && k <= radius; k++ {
			sig[k-1][g.Label(int(w))]++
		}
	}
	return sig
}

// decode reads a row of either form back into labels: alphabet is the rank
// space's label of each rank.
func decode(row []byte, alphabet []graph.Label) map[graph.Label]int32 {
	m := make(map[graph.Label]int32)
	if len(row) == len(alphabet) {
		for rank, count := range row {
			if count > 0 {
				m[alphabet[rank]] = int32(count)
			}
		}
		return m
	}
	for i := 0; i < len(row); i += 3 {
		m[alphabet[rankAt(row, i)]] = int32(row[i+2])
	}
	return m
}

// checkForm holds every row of sig to the form its label count asks for:
// width counts when 3k ≥ width, k triples of strictly ascending rank and
// positive count otherwise.
func checkForm(t *testing.T, name string, sig signatures) {
	t.Helper()
	for i := 0; i+1 < len(sig.off); i++ {
		row := sig.rows[sig.off[i]:sig.off[i+1]]
		if len(row) == sig.width {
			k := len(row) - bytes.Count(row, []byte{0})
			if 3*k < sig.width {
				t.Fatalf("%s: row %d = %v is dense with %d of %d labels, want sparse", name, i, row, k, sig.width)
			}
			continue
		}
		if len(row)%3 != 0 || len(row) > sig.width {
			t.Fatalf("%s: row %d = %v is neither %d counts nor triples", name, i, row, sig.width)
		}
		for j := 0; j < len(row); j += 3 {
			if row[j+2] == 0 || j > 0 && rankAt(row, j-3) >= rankAt(row, j) {
				t.Fatalf("%s: sparse row %d = %v: ranks must ascend, counts be positive", name, i, row)
			}
		}
	}
}

// ownSignatures builds g's signatures in g's own rank space, as a Matcher
// does for its stored graph.
func ownSignatures(t *testing.T, g *graph.Graph, radius int) signatures {
	t.Helper()
	sig, ok := buildSignatures(g, radius, g)
	if !ok {
		t.Fatalf("%s: a graph lacks one of its own labels", g.Name())
	}
	return sig
}

// checkAgainstOracle compares every row of g's signatures with the oracle's
// map — same labels, same counts — and holds it to its form (checkForm). No
// vertex of g sees more than 255 of one label, or the counts would saturate.
func checkAgainstOracle(t *testing.T, g *graph.Graph, radius int) {
	t.Helper()
	sig := ownSignatures(t, g, radius)
	width := g.DistinctLabels()
	if want := g.N()*radius + 1; len(sig.off) != want || sig.width != width {
		t.Fatalf("%s radius=%d: %d offsets, width %d, want %d and %d", g.Name(), radius, len(sig.off), sig.width, want, width)
	}
	for v := 0; v < g.N(); v++ {
		want := oracleSignature(g, v, radius)
		for d := 0; d < radius; d++ {
			if got := decode(sig.row(v, d), g.LabelValues()); !maps.Equal(got, want[d]) {
				t.Fatalf("%s radius=%d: row(%d, %d) = %v, oracle %v", g.Name(), radius, v, d, got, want[d])
			}
		}
	}
	checkForm(t, fmt.Sprintf("%s radius=%d", g.Name(), radius), sig)
}

// sparseGraph draws n vertices with labels from alphabet and about
// n*degree/2 random edges: at degree 1.5 it is disconnected and has isolated
// vertices.
func sparseGraph(r *rand.Rand, n int, degree float64, alphabet []graph.Label) *graph.Graph {
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = alphabet[r.Intn(len(alphabet))]
	}
	return randomEdges(r, labels, degree)
}

// everyLabel is sparseGraph with alphabet dealt round the vertices in turn,
// so a graph of at least len(alphabet) vertices carries all of it.
func everyLabel(r *rand.Rand, n int, degree float64, alphabet []graph.Label) *graph.Graph {
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = alphabet[i%len(alphabet)]
	}
	return randomEdges(r, labels, degree)
}

// wideAlphabet is n labels, 7 apart: at 300 the rank space's last 44 ranks
// have a high byte of 1.
func wideAlphabet(n int) []graph.Label {
	alphabet := make([]graph.Label, n)
	for i := range alphabet {
		alphabet[i] = graph.Label(7 * i)
	}
	return alphabet
}

// randomEdges builds a graph over labels with about n*degree/2 random edges.
func randomEdges(r *rand.Rand, labels []graph.Label, degree float64) *graph.Graph {
	n := len(labels)
	b := graph.NewBuilder(fmt.Sprintf("g%d", n))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for i := 0; n > 1 && i < int(float64(n)*degree/2); i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdgePending(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return b.MustBuild()
}

// wideLabels straddle 4095 and reach 2^30: the labels the hand-built cases
// and the fuzz target draw from. Eight of them make a row of one or two labels
// sparse and one of three dense.
var wideLabels = []graph.Label{0, 1, 4095, 4096, 1 << 20, 1<<20 + 1, 1 << 24, 1 << 30}

// star returns a graph over the first width of wideLabels, one vertex each:
// vertex 0 is adjacent to vertices 1..k and the rest are isolated, so
// row(0, 0) has k of width labels.
func star(width, k int) *graph.Graph {
	var edges [][2]int
	for i := 1; i <= k; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return graph.MustNew(fmt.Sprintf("star-w%d-k%d", width, k), wideLabels[:width], edges)
}

// TestSignaturesAgainstOracle: the batched build equals the per-vertex
// oracle on graphs whose sizes straddle the 64-source batch, sparse
// (disconnected, isolated vertices) and dense (everything within radius),
// over labels that straddle 4095 and reach 2^20; n=24 is the query-sized
// case, one partial batch. Alphabets of width 0 (no vertex) to 3 make every
// row dense, the six-label one keeps a sparse graph's rows of one label
// sparse, and the graphs over 300 labels, all present, put ranks with a
// non-zero high byte in sparse rows and dense rows of 300 counts side by
// side. The stars sit on the boundary between the forms.
func TestSignaturesAgainstOracle(t *testing.T) {
	alphabets := [][]graph.Label{
		{0, 1, 4094, 4095, 4096, 1 << 20},
		{7},
		{0, 4096},
		{1, 2, 1 << 20},
	}
	r := rand.New(rand.NewSource(11))
	for _, alphabet := range alphabets {
		for _, n := range []int{0, 1, 24, 63, 64, 65, 130} {
			for radius := 1; radius <= 5; radius++ {
				for _, degree := range []float64{1.5, 6} {
					checkAgainstOracle(t, sparseGraph(r, n, degree, alphabet), radius)
				}
			}
		}
	}
	for radius := 1; radius <= 5; radius++ {
		for _, degree := range []float64{1.5, 4} {
			checkAgainstOracle(t, everyLabel(r, 330, degree, wideAlphabet(300)), radius)
		}
	}
	for _, tc := range []struct {
		width, k int
		dense    bool
	}{
		{1, 0, false}, // a lone vertex: an empty row is sparse
		{2, 1, true},
		{3, 1, true},                // 3k = width
		{4, 1, false}, {5, 2, true}, // 3k = width − 1, width + 1
		{6, 2, true}, {7, 2, false}, {8, 2, false}, {8, 3, true},
	} {
		g := star(tc.width, tc.k)
		checkAgainstOracle(t, g, 2)
		sig := ownSignatures(t, g, 2)
		if got := len(sig.row(0, 0)) == tc.width; got != tc.dense {
			t.Errorf("%s: row(0, 0) = %v, dense %v, want %v", g.Name(), sig.row(0, 0), got, tc.dense)
		}
	}
}

// TestSignatureScratchNotLabelSized: with labels at 2^20 the build allocates
// what the rows need, not a table over 0..MaxLabel (4 MB for one int32 per
// label).
func TestSignatureScratchNotLabelSized(t *testing.T) {
	g := sparseGraph(rand.New(rand.NewSource(3)), 130, 3, []graph.Label{1 << 20, 1<<20 - 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sig := ownSignatures(t, g, DefaultRadius)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("build allocated %d bytes for %d entries", got, len(sig.rows))
	}
}

// TestByteClamps: the two places a row is narrower than the graph it
// describes, 16-bit ranks and one-byte counts. Each is exact below its limit
// and errs only towards containment beyond it, so the filter never prunes a
// true image.
func TestByteClamps(t *testing.T) {
	for _, tc := range []struct{ in, rank, count int }{
		{0, 0, 0}, {1, 1, 1}, {254, 254, 254}, {255, 255, 255}, {256, 256, 255}, {300, 300, 255},
		{65534, 65534, 255}, {65535, 65535, 255}, {65536, 65535, 255}, {1 << 20, 65535, 255},
	} {
		if got := clampRank(tc.in); int(got) != tc.rank {
			t.Errorf("clampRank(%d) = %d, want %d", tc.in, got, tc.rank)
		}
		if got := clampCount(tc.in); int(got) != tc.count {
			t.Errorf("clampCount(%d) = %d, want %d", tc.in, got, tc.count)
		}
	}
	// Hand-built rows over four ranks, one label (rank 1) in the sparse form
	// and three in the dense one: stored count against query count.
	for _, tc := range []struct {
		stored, query int
		want          bool // what the clamped rows answer
		exact         bool // whether that is the true answer
	}{
		{254, 254, true, true}, {254, 255, false, true}, {255, 254, true, true},
		{255, 255, true, true}, {255, 256, true, false}, {256, 255, true, true},
		{300, 256, true, true}, {256, 300, true, false}, {254, 300, false, true},
		{300, 254, true, true}, {300, 300, true, true},
	} {
		if tc.exact != (tc.want == (tc.stored >= tc.query)) {
			t.Fatalf("case %+v contradicts itself", tc)
		}
		s, q := clampCount(tc.stored), clampCount(tc.query)
		for name, rows := range map[string][2][]byte{
			"sparse in sparse": {{0, 1, s}, {0, 1, q}},
			"sparse in dense":  {{3, s, 9, 0}, {0, 1, q}},
			"dense in dense":   {{3, s, 9, 0}, {2, q, 1, 0}},
		} {
			if got := rowContains(rows[0], rows[1], 4); got != tc.want {
				t.Errorf("%s: stored %d, query %d: contained %v, want %v", name, tc.stored, tc.query, got, tc.want)
			}
		}
	}
	// Sums saturate too: the sparse merge and scatter add through clampCount,
	// and a merge that turns dense scatters its saturated triples.
	if got := appendSum([]byte{0, 0, 250, 1, 2, 7}, 0, 6, []byte{0, 0, 10, 1, 2, 1}, 300); !slices.Equal(got[6:], []byte{0, 0, 255, 1, 2, 8}) {
		t.Errorf("sparse sum = %v", got[6:])
	}
	if got := appendSum([]byte{250, 7, 0}, 0, 3, []byte{0, 0, 10, 0, 1, 1}, 3); !slices.Equal(got[3:], []byte{255, 8, 0}) {
		t.Errorf("dense sum = %v", got[3:])
	}
	if got := appendSum([]byte{0, 1, 200}, 0, 3, []byte{0, 1, 100, 0, 3, 4}, 6); !slices.Equal(got[3:], []byte{0, 255, 0, 4, 0, 0}) {
		t.Errorf("sparse sum turned dense = %v", got[3:])
	}
	dense := []byte{200, 255, 1}
	scatter(dense, []byte{0, 0, 100, 0, 1, 1, 0, 2, 254})
	if !slices.Equal(dense, []byte{255, 255, 255}) {
		t.Errorf("scatter = %v", dense)
	}

	// Two labels sharing the last rank, as labels of rank 65 535 and up do:
	// over ranks {0, 1, 1} vertex 0 (label 0) sees two vertices of the shared
	// rank, where labels 1 and 4095 have one each. In a space of two ranks
	// that row is dense, in one of six sparse.
	g := graph.MustNew("g", []graph.Label{0, 1, 4095, 1}, [][2]int{{0, 1}, {0, 2}, {2, 3}})
	exact := ownSignatures(t, g, 2)
	q := graph.MustNew("q", []graph.Label{0, 4095, 4095}, [][2]int{{0, 1}, {0, 2}})
	qExact, _ := buildSignatures(q, 2, g)
	for _, width := range []int{2, 6} {
		shared := buildRows(g, 2, []uint16{0, 1, 1}, width)
		for v := 0; v < g.N(); v++ {
			for d, want := range oracleSignature(g, v, 2) {
				bucket := map[graph.Label]int32{}
				for l, c := range want {
					bucket[min(l, 1)] += c
				}
				if got := decode(shared.row(v, d), []graph.Label{0, 1, 2, 3, 4, 5}[:width]); !maps.Equal(got, bucket) {
					t.Errorf("width %d: row(%d, %d) = %v, want the oracle's %v bucketed to %v", width, v, d, got, want, bucket)
				}
			}
		}
		// Sound: whatever is contained label by label is contained bucket by
		// bucket. Not exact: a query vertex seeing two label-4095 vertices at
		// distance 1 passes against vertex 0's bucket of two, which has one.
		qShared := buildRows(q, 2, []uint16{0, 1}, width)
		if exact.contains(0, &qExact, 0) || !shared.contains(0, &qShared, 0) {
			t.Errorf("width %d: two label-4095 neighbours against one: exact rows must reject, bucketed rows accept", width)
		}
		for v := 0; v < g.N(); v++ {
			for u := 0; u < g.N(); u++ {
				if exact.contains(v, &exact, u) && !shared.contains(v, &shared, u) {
					t.Errorf("width %d: bucketed rows reject (%d, %d), which the exact rows accept", width, v, u)
				}
			}
		}
	}

	// An offset that would wrap panics, naming the graph.
	if got := slabOffset(1<<32-1, 5, 3); got != 1<<32-1 {
		t.Errorf("slabOffset(2^32-1) = %d", got)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); msg != "spath: the signatures of a graph of 5 vertices over 3 labels exceed the 2^32 bytes an offset can address" {
			t.Errorf("slabOffset(2^32) recovered %q", msg)
		}
	}()
	slabOffset(1<<32, 5, 3)
}

// filterCase is one stored graph with queries to run the filter on.
type filterCase struct {
	g       *graph.Graph
	queries []*graph.Graph
}

// randomFilterCases draws 12 random stored graphs over six labels, each with
// queries extracted from it (so at least the planted embedding exists).
func randomFilterCases() []filterCase {
	r := rand.New(rand.NewSource(5))
	cases := make([]filterCase, 12)
	for round := range cases {
		g := sparseGraph(r, 30+r.Intn(40), 2+2*r.Float64(), []graph.Label{0, 1, 2, 3, 4, 5})
		cases[round] = extractedCase(g, int64(round))
	}
	return cases
}

func extractedCase(g *graph.Graph, seed int64) filterCase {
	c := filterCase{g: g}
	for _, wq := range workload.GenerateSingle(g, []int{3, 5, 7}, 4, seed) {
		c.queries = append(c.queries, wq.Graph)
	}
	return c
}

// handFilterCases are the filter's corner cases over wideLabels, which
// TestCandidatesMatchOracle runs and FuzzSPathCandidates is seeded with.
func handFilterCases() []filterCase {
	l := wideLabels
	path := func(name string, labels ...graph.Label) *graph.Graph {
		var edges [][2]int
		for i := 1; i < len(labels); i++ {
			edges = append(edges, [2]int{i - 1, i})
		}
		return graph.MustNew(name, labels, edges)
	}
	return []filterCase{
		// Only vertex 0 has an l[2] vertex within distance 2; the second query
		// carries a label the stored graph lacks, between two it has.
		{graph.MustNew("g", []graph.Label{l[0], l[1], l[3], l[0], l[1]}, [][2]int{{0, 1}, {1, 2}, {3, 4}}),
			[]*graph.Graph{path("q", l[0], l[1], l[3]), path("foreign", l[0], l[1], l[2])}},
		// Four labels. Stored vertex 0 sees one of them (a sparse row) and
		// vertex 3 two (a dense one); the query's middle vertex sees two, so
		// its dense row meets a sparse and a dense stored row. The second
		// query is all dense rows in dense rows, counts deciding.
		{graph.MustNew("w4", []graph.Label{l[0], l[1], l[1], l[0], l[1], l[2], l[2], l[3]}, [][2]int{{0, 1}, {0, 2}, {3, 4}, {3, 5}, {3, 6}}),
			[]*graph.Graph{path("dense-row", l[1], l[0], l[2]), graph.MustNew("counts", []graph.Label{l[0], l[2], l[2], l[1]}, [][2]int{{0, 1}, {0, 2}, {0, 3}})}},
		// Eight labels, sparse rows: the query's vertex 0 sees more distinct
		// labels than stored vertex 0 and as many as stored vertex 3.
		{graph.MustNew("w8", []graph.Label{l[0], l[1], l[1], l[0], l[1], l[3], l[2], l[4], l[5], l[6], l[7]}, [][2]int{{0, 1}, {0, 2}, {3, 4}, {3, 5}}),
			[]*graph.Graph{graph.MustNew("more-labels", []graph.Label{l[0], l[1], l[3]}, [][2]int{{0, 1}, {0, 2}})}},
		// One label: every non-empty row is dense; a triangle in a 4-clique
		// minus an edge, and a query larger than the stored graph's degrees.
		{graph.MustNew("w1", []graph.Label{l[4], l[4], l[4], l[4]}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}}),
			[]*graph.Graph{graph.MustNew("triangle", []graph.Label{l[4], l[4], l[4]}, [][2]int{{0, 1}, {1, 2}, {0, 2}}), path("p5", l[4], l[4], l[4], l[4], l[4])}},
		// Boundary stars as stored graphs and as queries of one another.
		{star(7, 3), []*graph.Graph{star(7, 2), star(6, 2), star(7, 3)}},
		{star(6, 2), []*graph.Graph{star(6, 1), star(7, 2)}},
		// Nothing to match against, and nothing to match.
		{graph.MustNew("empty", nil, nil), []*graph.Graph{path("one", l[0])}},
		{path("pair", l[0], l[1]), []*graph.Graph{graph.MustNew("none", nil, nil), graph.MustNew("isolated", []graph.Label{l[1], l[0]}, nil)}},
	}
}

// oracleCandidates is the filter by definition: v is a candidate for u iff
// it has u's label, at least u's degree, and at every radius at least as many
// vertices of every label as u has, by oracleSignature. Like candidates it
// returns nil when some query vertex has no candidate.
func oracleCandidates(g, q *graph.Graph, radius int) []match.VertexSet {
	gSig := make([][]map[graph.Label]int32, g.N())
	for v := range gSig {
		gSig[v] = oracleSignature(g, v, radius)
	}
	cand := match.NewVertexSets(q.N(), g.N())
	for u := 0; u < q.N(); u++ {
		qSig := oracleSignature(q, u, radius)
		for v := 0; v < g.N(); v++ {
			ok := g.Label(v) == q.Label(u) && g.Degree(v) >= q.Degree(u)
			for d := 0; ok && d < radius; d++ {
				for l, c := range qSig[d] {
					ok = ok && gSig[v][d][l] >= c
				}
			}
			if ok {
				cand[u].Add(int32(v))
			}
		}
		if cand[u].Len() == 0 {
			return nil
		}
	}
	return cand
}

// checkCandidates holds candidates(q) over g at radius to oracleCandidates,
// bit for bit.
func checkCandidates(t *testing.T, g, q *graph.Graph, radius int) {
	t.Helper()
	got, err := NewWithRadius(g, radius).candidates(q, match.NewBudget(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	want := oracleCandidates(g, q, radius)
	if !slices.EqualFunc(got, want, func(a, b match.VertexSet) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%s in %s, radius %d: candidates %v, oracle %v\nstored labels %v edges %v\nquery labels %v edges %v",
			q.Name(), g.Name(), radius, got, want, g.Labels(), g.EdgeList(), q.Labels(), q.EdgeList())
	}
}

// TestCandidatesMatchOracle is the parity argument as a test: the candidate
// sets are exactly the definition's, so path ordering and the search — which
// see nothing else of the signatures — emit what they always did. Every
// stored graph also meets the next one's queries, which mostly fail the
// filter and, across alphabets, carry labels it lacks. The graph over 300
// labels puts triples with a rank high byte of 1 in stored and query rows.
func TestCandidatesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	four := sparseGraph(r, 90, 5, []graph.Label{0, 1, 2, 3})
	cases := append(randomFilterCases(), extractedCase(four, 1), extractedCase(sparseGraph(r, 150, 4, wideAlphabet(40)), 2),
		extractedCase(everyLabel(r, 330, 3, wideAlphabet(300)), 3))
	cases = append(cases, handFilterCases()...)
	for i, c := range cases {
		for _, q := range slices.Concat(c.queries, cases[(i+1)%len(cases)].queries) {
			checkCandidates(t, c.g, q, DefaultRadius)
		}
	}
}

// fuzzCase decodes a fuzz input: radius 1..5, a stored graph of up to 32
// vertices over the first 1..8 of wideLabels and a query of up to 8 over its
// own first 1..8, so a query may carry labels the stored graph lacks; then
// the stored graph's edges as vertex pairs and, after them, the query's.
func fuzzCase(data []byte) (g, q *graph.Graph, radius int) {
	var head [6]int
	for i := range head {
		if i < len(data) {
			head[i] = int(data[i])
		}
	}
	data = data[min(len(head), len(data)):]
	build := func(name string, n, alphabet, pairs int) *graph.Graph {
		n = min(n, len(data))
		b := graph.NewBuilder(name)
		for _, l := range data[:n] {
			b.AddVertex(wideLabels[int(l)%alphabet])
		}
		data = data[n:]
		for ; n > 0 && pairs > 0 && len(data) >= 2; pairs, data = pairs-1, data[2:] {
			u, v := int(data[0])%n, int(data[1])%n
			if u != v && !b.HasEdgePending(u, v) {
				if err := b.AddEdge(u, v); err != nil {
					panic(err) // both endpoints exist
				}
			}
		}
		return b.MustBuild()
	}
	g = build("fuzz-g", head[1]%33, head[2]%len(wideLabels)+1, head[3])
	q = build("fuzz-q", head[4]%9, head[5]%len(wideLabels)+1, len(data))
	return g, q, head[0]%5 + 1
}

// fuzzInput spells a stored graph and a query over wideLabels as fuzzCase
// reads them.
func fuzzInput(g, q *graph.Graph, radius int) []byte {
	all := byte(len(wideLabels) - 1)
	data := []byte{byte(radius - 1), byte(g.N()), all, byte(g.M()), byte(q.N()), all}
	for _, x := range []*graph.Graph{g, q} {
		for _, l := range x.Labels() {
			data = append(data, byte(slices.Index(wideLabels, l)))
		}
		x.Edges(func(u, v int) { data = append(data, byte(u), byte(v)) })
	}
	return data
}

// FuzzSPathCandidates holds the filter to its definition, and the stored
// graph's and the query's rows to their forms, on whatever small stored graph
// and query the input spells, seeded with handFilterCases at every radius.
func FuzzSPathCandidates(f *testing.F) {
	for _, c := range handFilterCases() {
		for _, q := range c.queries {
			for radius := 1; radius <= 5; radius++ {
				f.Add(fuzzInput(c.g, q, radius))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, q, radius := fuzzCase(data)
		checkForm(t, "stored", ownSignatures(t, g, radius))
		if qSig, ok := buildSignatures(q, radius, g); ok {
			checkForm(t, "query", qSig)
		}
		checkCandidates(t, g, q, radius)
	})
}

// TestFuzzInputRoundTrips: the seeds are the cases they were made from.
func TestFuzzInputRoundTrips(t *testing.T) {
	for _, c := range handFilterCases() {
		for _, q := range c.queries {
			g2, q2, radius := fuzzCase(fuzzInput(c.g, q, 3))
			if !g2.Equal(c.g) || !q2.Equal(q) || radius != 3 {
				t.Errorf("%s in %s does not survive the fuzz encoding", q.Name(), c.g.Name())
			}
		}
	}
}

// TestCountClampOnAStar: the stored centre has 300 leaves of one label, so
// its counts saturate at 255. Stars of 254 and 255 leaves, the largest query
// the counts are exact for, get exactly the oracle's candidates, the centre
// among them.
func TestCountClampOnAStar(t *testing.T) {
	star := func(leaves int) *graph.Graph {
		labels := make([]graph.Label, leaves+1)
		edges := make([][2]int, leaves)
		for i := range edges {
			labels[i+1] = 1
			edges[i] = [2]int{0, i + 1}
		}
		return graph.MustNew(fmt.Sprintf("star%d", leaves), labels, edges)
	}
	g := star(300)
	m := New(g)
	if row := m.sig.row(0, 0); !slices.Equal(row, []byte{0, 255}) {
		t.Fatalf("centre's row = %v, want 300 leaves saturated to [0 255]", row)
	}
	for _, leaves := range []int{254, 255} {
		checkCandidates(t, g, star(leaves), DefaultRadius)
		cand, err := m.candidates(star(leaves), match.NewBudget(context.Background()))
		if err != nil || cand == nil || !cand[0].Has(0) {
			t.Errorf("%d leaves: candidates %v, error %v; want the centre for the centre", leaves, cand, err)
		}
	}
}

// TestYeastIndexBytes pins what the signature index holds on the paper-scale
// yeast graph, the nfv_race stored graph.
func TestYeastIndexBytes(t *testing.T) {
	if got := New(gen.YeastLike(gen.Paper, 1)).IndexBytes(); got > 1_300_000 {
		t.Errorf("IndexBytes = %d, want at most 1 300 000", got)
	}
}

// TestCandidatesKeepEveryEmbedding is the filter's soundness: on random
// stored graphs, for queries extracted from them (so at least the planted
// embedding exists), every image of every embedding the reference matcher
// finds survives the candidate filter.
func TestCandidatesKeepEveryEmbedding(t *testing.T) {
	ctx := context.Background()
	for round, c := range randomFilterCases() {
		m := New(c.g)
		for _, q := range c.queries {
			embs, err := match.NewReference(c.g).Match(ctx, q, 50)
			if err != nil {
				t.Fatal(err)
			}
			if len(embs) == 0 {
				t.Fatalf("round %d: extracted query %s has no embedding", round, q.Name())
			}
			cand, err := m.candidates(q, match.NewBudget(ctx))
			if err != nil {
				t.Fatal(err)
			}
			if cand == nil {
				t.Fatalf("round %d: filter emptied a candidate set of a contained query", round)
			}
			for _, emb := range embs {
				for u, v := range emb {
					if !cand[u].Has(v) {
						t.Fatalf("round %d: embedding %v maps %d to %d, which the filter pruned", round, emb, u, v)
					}
				}
			}
		}
	}
}

// TestConcurrentQueries drives one Matcher from 8 goroutines (run under
// -race by scripts/check.sh): every goroutine gets the sequential answers,
// in the same order.
func TestConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	g := sparseGraph(rand.New(rand.NewSource(9)), 200, 4, []graph.Label{0, 1, 2})
	m := New(g)
	queries := workload.GenerateSingle(g, []int{4, 8}, 6, 1)
	want := make([][]match.Embedding, len(queries))
	for i, wq := range queries {
		embs, err := m.Match(ctx, wq.Graph, 100)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = embs
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, wq := range queries {
				got, err := m.Match(ctx, wq.Graph, 100)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.EqualFunc(got, want[i], func(a, b match.Embedding) bool { return slices.Equal(a, b) }) {
					t.Errorf("query %d: concurrent answer differs from sequential", i)
				}
			}
		}()
	}
	wg.Wait()
}
