package match_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/vf2"
)

const (
	// fuzzOracleCap bounds the embeddings the reference enumerates for one
	// input; past it the input is checked on containment only.
	fuzzOracleCap = 5000
	// fuzzRunLimit bounds the searches of one input: a query whose search
	// tree is too large for it is skipped.
	fuzzRunLimit = 2 * time.Second
)

// decodeFuzzGraphs reads a stored graph of 1–24 vertices over 1–4 vertex
// labels and one to three edge labels from gb, and a query of 1–7 vertices over
// the same alphabets from qb: both are a header, one label byte per vertex
// and then (endpoint, endpoint, label) triples, an edge already present or
// a loop being dropped. A query header with its top bit set instead picks
// the query's vertices from the stored graph (one byte each, repeats
// dropped) and keeps the stored edges among them that the following bytes'
// bits select, so that the query often embeds; it may then have isolated
// vertices and several components like any other.
func decodeFuzzGraphs(gb, qb []byte) (g, q *graph.Graph) {
	next := func(b *[]byte) int {
		if len(*b) == 0 {
			return 0
		}
		v := (*b)[0]
		*b = (*b)[1:]
		return int(v)
	}
	head := next(&gb)
	n, vLabels, eLabels := 1+head%24, 1+(head/24)%4, (head/96)%3+1
	gbld := graph.NewBuilder("g")
	for v := 0; v < n; v++ {
		gbld.AddVertex(graph.Label(next(&gb) % vLabels))
	}
	for len(gb) >= 3 {
		a, b, l := next(&gb)%n, next(&gb)%n, next(&gb)%eLabels
		if a != b && !gbld.HasEdgePending(a, b) {
			_ = gbld.AddLabeledEdge(a, b, graph.Label(l))
		}
	}
	g = gbld.MustBuild()

	head = next(&qb)
	k := 1 + (head&0x7f)%7
	qbld := graph.NewBuilder("q")
	if head&0x80 != 0 {
		var ids []int32
		for i := 0; i < k && len(qb) > 0; i++ {
			v := int32(next(&qb) % n)
			dup := false
			for _, w := range ids {
				dup = dup || w == v
			}
			if !dup {
				ids = append(ids, v)
				qbld.AddVertex(g.Label(int(v)))
			}
		}
		bits := 0
		for i, v := range ids {
			for j, w := range ids[:i] {
				if bits%8 == 0 {
					head = next(&qb)
				}
				if head>>(bits%8)&1 != 0 && g.HasEdge(int(v), int(w)) {
					_ = qbld.AddLabeledEdge(i, j, g.EdgeLabel(int(v), int(w)))
				}
				bits++
			}
		}
		if len(ids) == 0 {
			qbld.AddVertex(g.Label(0))
		}
		return g, qbld.MustBuild()
	}
	for v := 0; v < k; v++ {
		qbld.AddVertex(graph.Label(next(&qb) % vLabels))
	}
	for len(qb) >= 3 {
		a, b, l := next(&qb)%k, next(&qb)%k, next(&qb)%eLabels
		if a != b && !qbld.HasEdgePending(a, b) {
			_ = qbld.AddLabeledEdge(a, b, graph.Label(l))
		}
	}
	return g, qbld.MustBuild()
}

// induced returns the subgraph of g induced by the members of allowed.
func induced(g *graph.Graph, allowed match.VertexSet) *graph.Graph {
	var ids []int32
	old2new := make(map[int32]int)
	b := graph.NewBuilder("induced")
	for v := allowed.Next(0); v >= 0; v = allowed.Next(v + 1) {
		old2new[v] = len(ids)
		ids = append(ids, v)
		b.AddVertex(g.Label(int(v)))
	}
	for i, v := range ids {
		for j, w := range g.Neighbors(int(v)) {
			if nw, ok := old2new[w]; ok && w > v {
				_ = b.AddLabeledEdge(i, nw, g.EdgeLabels(int(v))[j])
			}
		}
	}
	return b.MustBuild()
}

func embeddingKey(e match.Embedding) string { return fmt.Sprint([]int32(e)) }

// FuzzMatchers holds VF2, QuickSI, GraphQL and sPath to the reference
// matcher on fuzzed stored graphs and queries: the same embeddings, each
// once, at an unbounded limit; the same containment answer at limit 0; and
// VF2 restricted to a fuzzed vertex set the same answer as the reference on
// the subgraph that set induces.
func FuzzMatchers(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		gb := make([]byte, 1+24+3*r.Intn(40))
		qb := make([]byte, 1+7+3*r.Intn(8))
		r.Read(gb)
		r.Read(qb)
		f.Add(gb, qb, r.Uint32())
	}
	// A triangle against a hexagon, all one label: no embedding.
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 0, 0},
		[]byte{2, 0, 0, 0, 0, 1, 0, 1, 2, 0, 2, 0, 0}, uint32(0xffffff))
	f.Fuzz(func(t *testing.T, gb, qb []byte, mask uint32) {
		g, q := decodeFuzzGraphs(gb, qb)
		ctx, cancel := context.WithTimeout(context.Background(), fuzzRunLimit)
		defer cancel()
		check := func(err error) {
			if errors.Is(err, context.DeadlineExceeded) {
				t.Skipf("searches ran past %v", fuzzRunLimit)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		want, err := match.NewReference(g).Match(ctx, q, fuzzOracleCap)
		check(err)
		wantSet := make(map[string]bool, len(want))
		for _, e := range want {
			wantSet[embeddingKey(e)] = true
		}
		for _, m := range allMatchers(g) {
			if len(want) < fuzzOracleCap {
				got, err := m.Match(ctx, q, 1<<30)
				check(err)
				seen := make(map[string]bool, len(got))
				for _, e := range got {
					key := embeddingKey(e)
					if seen[key] || !wantSet[key] {
						t.Fatalf("%s: embedding %v is repeated or not the reference's (g %v, q %v)", m.Name(), e, g, q)
					}
					seen[key] = true
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d embeddings, the reference %d (g %v, q %v)", m.Name(), len(got), len(want), g, q)
				}
			}
			dec, err := m.Match(ctx, q, 0)
			check(err)
			if (len(dec) > 0) != (len(want) > 0) {
				t.Fatalf("%s: contains %v, the reference %v (g %v, q %v)", m.Name(), len(dec) > 0, len(want) > 0, g, q)
			}
		}

		allowed := match.NewVertexSets(1, g.N())[0]
		for v := 0; v < g.N(); v++ {
			if mask>>v&1 != 0 {
				allowed.Add(int32(v))
			}
		}
		within, err := vf2.New(g).ContainsWithin(ctx, q, allowed)
		check(err)
		ref, err := match.NewReference(induced(g, allowed)).Match(ctx, q, 0)
		check(err)
		if within != (len(ref) > 0) {
			t.Fatalf("ContainsWithin(%b) = %v, the reference on the induced subgraph %v (g %v, q %v)", mask, within, len(ref) > 0, g, q)
		}
	})
}

// FuzzRankedSearch holds a ranked search to the search it stands for: for
// VF2, QuickSI, GraphQL and sPath at limits 0 and 1000, searching a fuzzed
// query q under a fuzzed permutation perm emits the embedding sequence of a
// plain search of q.MustPermute(perm), mapped through perm, after the same
// step count. The permutation is a Fisher–Yates shuffle drawn from pb.
func FuzzRankedSearch(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		gb := make([]byte, 1+24+3*r.Intn(40))
		qb := make([]byte, 1+7+3*r.Intn(8))
		pb := make([]byte, 7)
		r.Read(gb)
		r.Read(qb)
		r.Read(pb)
		qb[0] |= 0x80 // a query picked from the stored graph, which often embeds
		f.Add(gb, qb, pb)
	}
	f.Fuzz(func(t *testing.T, gb, qb, pb []byte) {
		g, q := decodeFuzzGraphs(gb, qb)
		perm := graph.Identity(q.N())
		for i := len(perm) - 1; i > 0 && len(pb) > 0; i-- {
			j := int(pb[0]) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
			pb = pb[1:]
		}
		permuted := q.MustPermute(perm)
		ctx, cancel := context.WithTimeout(context.Background(), fuzzRunLimit)
		defer cancel()
		type run struct {
			embs  []string
			steps uint32
		}
		search := func(fn func(sink match.Sink) error) run {
			var out run
			var err error
			out.steps = match.StepsOf(func() {
				err = fn(match.SinkFunc(func(e match.Embedding) bool {
					out.embs = append(out.embs, embeddingKey(e))
					return true
				}))
			})
			if errors.Is(err, context.DeadlineExceeded) {
				t.Skipf("searches ran past %v", fuzzRunLimit)
			}
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		for _, m := range goldenMatchers(g) {
			for _, limit := range []int{0, 1000} {
				want := search(func(sink match.Sink) error { return m.MatchStream(ctx, permuted, limit, sink) })
				got := search(func(sink match.Sink) error {
					return match.Ranked(ctx, m, q, perm, nil, limit, forward(perm, sink))
				})
				if !slices.Equal(got.embs, want.embs) || got.steps != want.steps {
					t.Fatalf("%s limit %d under %v: ranked search emits %v after %d steps, the permuted query's search %v after %d (g %v, q %v)",
						m.Name(), limit, perm, got.embs, got.steps, want.embs, want.steps, g, q)
				}
			}
		}
	})
}
