package match_test

// Cross-validation tests: every matcher (VF2, QuickSI, GraphQL, sPath) must
// agree with the naive reference matcher on both the decision problem and
// the number of embeddings, across randomized labeled graphs and randomized
// queries extracted from them. These tests are the safety net under the
// Ψ-framework: racing heterogeneous algorithms is only sound if they all
// compute the same answers.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/gql"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/quicksi"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
	"github.com/psi-graph/psi/internal/vf2"
	"github.com/psi-graph/psi/internal/workload"
)

func allMatchers(g *graph.Graph) []match.Matcher {
	return []match.Matcher{
		vf2.New(g),
		quicksi.New(g),
		gql.New(g),
		spath.New(g),
	}
}

// allStreamMatchers is every matcher in the module — the four algorithms
// plus the naive reference — as stream matchers. The conversion is a
// compile-time check that each implements match.StreamMatcher.
func allStreamMatchers(g *graph.Graph) []match.StreamMatcher {
	return []match.StreamMatcher{
		vf2.New(g),
		quicksi.New(g),
		gql.New(g),
		spath.New(g),
		match.NewReference(g),
	}
}

// embeddingsEqual reports byte-identical embedding slices: same length,
// same order, same vertices.
func embeddingsEqual(a, b []match.Embedding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// collect drains MatchStream into a slice through a plain always-true sink.
func collect(t *testing.T, m match.StreamMatcher, q *graph.Graph, limit int) []match.Embedding {
	t.Helper()
	var out []match.Embedding
	err := m.MatchStream(context.Background(), q, limit, match.SinkFunc(func(e match.Embedding) bool {
		out = append(out, e)
		return true
	}))
	if err != nil {
		t.Fatalf("%s: MatchStream: %v", m.Name(), err)
	}
	return out
}

// TestStreamingParityWithSlicePath is the tentpole's safety net: for every
// matcher, the sink-collected stream must be byte-identical — same
// embeddings, same order — to the Match slice path, across random graphs,
// query shapes and limits, including the empty query.
func TestStreamingParityWithSlicePath(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		g := difftest.Graph(r, 10+r.Intn(15), 10, 2)
		var q *graph.Graph
		switch trial % 3 {
		case 0:
			q = workload.Extract(r, g, 2+r.Intn(4))
		case 1:
			q = difftest.Graph(r, 3+r.Intn(3), 2, 2) // may be absent
		default:
			q = graph.MustNew("empty", nil, nil)
		}
		for _, limit := range []int{1, 7, 100000} {
			for _, m := range allStreamMatchers(g) {
				want, err := m.Match(context.Background(), q, limit)
				if err != nil {
					t.Fatalf("trial %d %s: Match: %v", trial, m.Name(), err)
				}
				got := collect(t, m, q, limit)
				if !embeddingsEqual(got, want) {
					t.Fatalf("trial %d %s limit %d: stream %v != slice %v",
						trial, m.Name(), limit, got, want)
				}
			}
		}
	}
}

// TestStreamingMidStreamCancellation stops the sink after k embeddings:
// the search must terminate with a nil error having emitted exactly k, and
// those k must be the first k of the slice path.
func TestStreamingMidStreamCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	g := difftest.Graph(r, 20, 30, 1) // single label: many embeddings
	q := workload.Extract(r, g, 3)
	const lim = 100000
	for _, m := range allStreamMatchers(g) {
		full, err := m.Match(context.Background(), q, lim)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 5 {
			t.Fatalf("%s: test graph too sparse (%d embeddings)", m.Name(), len(full))
		}
		for _, k := range []int{1, 3, len(full) - 1} {
			var got []match.Embedding
			err := m.MatchStream(context.Background(), q, lim, match.SinkFunc(func(e match.Embedding) bool {
				got = append(got, e)
				return len(got) < k
			}))
			if err != nil {
				t.Fatalf("%s: sink-stopped stream must return nil, got %v", m.Name(), err)
			}
			if len(got) != k {
				t.Fatalf("%s: sink stopped at %d but saw %d embeddings", m.Name(), k, len(got))
			}
			if !embeddingsEqual(got, full[:k]) {
				t.Fatalf("%s: first %d streamed embeddings diverge from slice prefix", m.Name(), k)
			}
		}
	}
}

// TestStreamingDecisionSemantics checks limit <= 0 streams exactly one
// embedding (the decision convention), for both 0 and negative limits.
func TestStreamingDecisionSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := difftest.Graph(r, 15, 10, 1)
	q := workload.Extract(r, g, 2)
	for _, limit := range []int{0, -3} {
		for _, m := range allStreamMatchers(g) {
			got := collect(t, m, q, limit)
			if len(got) != 1 {
				t.Errorf("%s: limit %d must stream exactly one embedding, got %d",
					m.Name(), limit, len(got))
			}
		}
	}
}

// TestStreamingCancelledContext mirrors TestCancelledContext for the
// streaming path: a dead context must surface as an error promptly.
func TestStreamingCancelledContext(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	g := difftest.Graph(r, 200, 1500, 1)
	q := workload.Extract(r, g, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range allStreamMatchers(g) {
		err := m.MatchStream(ctx, q, 1000000, match.SinkFunc(func(match.Embedding) bool { return true }))
		if err == nil {
			t.Errorf("%s: expected context error from streaming match", m.Name())
		}
	}
}

// TestStreamingEmbeddingsAreClones guards against the stream aliasing the
// search's scratch buffer: a retained embedding must not change as the
// search continues.
func TestStreamingEmbeddingsAreClones(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	g := difftest.Graph(r, 15, 20, 1)
	q := workload.Extract(r, g, 3)
	for _, m := range allStreamMatchers(g) {
		var kept []match.Embedding
		if err := m.MatchStream(context.Background(), q, 50, match.SinkFunc(func(e match.Embedding) bool {
			kept = append(kept, e)
			return true
		})); err != nil {
			t.Fatal(err)
		}
		want, err := m.Match(context.Background(), q, 50)
		if err != nil {
			t.Fatal(err)
		}
		if !embeddingsEqual(kept, want) {
			t.Fatalf("%s: embeddings mutated after emission — stream aliases the search buffer", m.Name())
		}
	}
}

func TestPlantedQueryIsFound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := difftest.Graph(r, 20+r.Intn(30), 20, 3)
		q := workload.Extract(r, g, 3+r.Intn(6))
		for _, m := range allMatchers(g) {
			embs, err := m.Match(context.Background(), q, 1)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, m.Name(), err)
			}
			if len(embs) == 0 {
				t.Fatalf("trial %d %s: planted query of %d edges not found", trial, m.Name(), q.M())
			}
			if err := match.VerifyEmbedding(q, g, embs[0]); err != nil {
				t.Fatalf("trial %d %s: invalid embedding: %v", trial, m.Name(), err)
			}
		}
	}
}

func TestDecisionAgreesWithReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := difftest.Graph(r, 8+r.Intn(10), 6, 3)
		// random query: may or may not be present
		q := difftest.Graph(r, 3+r.Intn(4), 2, 3)
		ref := match.NewReference(g)
		want, err := ref.Match(context.Background(), q, 1)
		if err != nil {
			return false
		}
		for _, m := range allMatchers(g) {
			got, err := m.Match(context.Background(), q, 1)
			if err != nil {
				return false
			}
			if (len(got) > 0) != (len(want) > 0) {
				return false
			}
			if len(got) > 0 && match.VerifyEmbedding(q, g, got[0]) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEmbeddingCountAgreesWithReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := difftest.Graph(r, 7+r.Intn(6), 4, 2)
		q := workload.Extract(r, g, 2+r.Intn(3))
		const lim = 100000
		ref := match.NewReference(g)
		want, err := ref.Match(context.Background(), q, lim)
		if err != nil {
			return false
		}
		for _, m := range allMatchers(g) {
			got, err := m.Match(context.Background(), q, lim)
			if err != nil {
				return false
			}
			if len(got) != len(want) {
				return false
			}
			for _, e := range got {
				if match.VerifyEmbedding(q, g, e) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Embeddings must be pairwise distinct: enumerating the same mapping twice
// would inflate counts.
func TestEmbeddingsDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := difftest.Graph(r, 12, 8, 2)
	q := workload.Extract(r, g, 4)
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 100000)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, e := range embs {
			key := ""
			for _, v := range e {
				key += string(rune(v)) + ","
			}
			if seen[key] {
				t.Fatalf("%s: duplicate embedding %v", m.Name(), e)
			}
			seen[key] = true
		}
	}
}

func TestLimitRespected(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := difftest.Graph(r, 30, 40, 1) // single label: many embeddings
	q := workload.Extract(r, g, 2)
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) != 5 {
			t.Errorf("%s: got %d embeddings, want exactly 5 (limit)", m.Name(), len(embs))
		}
	}
}

func TestDecisionLimitZeroMeansOne(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := difftest.Graph(r, 15, 10, 1)
	q := workload.Extract(r, g, 2)
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) != 1 {
			t.Errorf("%s: limit 0 should yield one embedding, got %d", m.Name(), len(embs))
		}
	}
}

func TestCancelledContext(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	// Large single-label graph: enumeration would take a long time.
	g := difftest.Graph(r, 200, 1500, 1)
	q := workload.Extract(r, g, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range allMatchers(g) {
		start := time.Now()
		_, err := m.Match(ctx, q, 1000000)
		if err == nil {
			t.Errorf("%s: expected context error", m.Name())
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%s: cancellation took %v", m.Name(), elapsed)
		}
	}
}

func TestDeadlineExceeded(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := difftest.Graph(r, 300, 3000, 1)
	q := workload.Extract(r, g, 10)
	for _, m := range allMatchers(g) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := m.Match(ctx, q, 1<<30)
		cancel()
		if err != context.DeadlineExceeded {
			// Small chance the search finishes legitimately; only fail on
			// wrong error type.
			if err != nil {
				t.Errorf("%s: unexpected error %v", m.Name(), err)
			}
		}
	}
}

// rankedMatch collects m's search of q under rank.
func rankedMatch(m match.Matcher, q *graph.Graph, rank graph.Permutation, limit int) ([]match.Embedding, error) {
	var out []match.Embedding
	err := match.Ranked(context.Background(), m.(match.Planner), q, rank, nil, limit, match.SinkFunc(func(e match.Embedding) bool {
		out = append(out, e)
		return true
	}))
	return out, err
}

// A query searched under any rewriting's ranking must produce the same
// embedding count, each a valid embedding of the query.
func TestRewritingPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		g := difftest.Graph(r, 10+r.Intn(8), 6, 2)
		q := workload.Extract(r, g, 3+r.Intn(3))
		freq := rewrite.FrequenciesOf(g)
		const lim = 100000
		for _, m := range allMatchers(g) {
			orig, err := m.Match(context.Background(), q, lim)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range rewrite.Structured {
				got, err := rankedMatch(m, q, rewrite.Compute(q, freq, k, 0), lim)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(orig) {
					t.Fatalf("%s/%v: %d embeddings vs %d for original",
						m.Name(), k, len(got), len(orig))
				}
				for _, e := range got {
					if err := match.VerifyEmbedding(q, g, e); err != nil {
						t.Fatalf("%s/%v: invalid embedding: %v", m.Name(), k, err)
					}
				}
			}
		}
	}
}

func TestEmptyQuery(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1}, [][2]int{{0, 1}})
	q := graph.MustNew("q", nil, nil)
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) != 1 || len(embs[0]) != 0 {
			t.Errorf("%s: empty query should yield one empty embedding", m.Name())
		}
	}
}

func TestQueryLargerThanGraph(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 0}, [][2]int{{0, 1}})
	q := graph.MustNew("q", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}})
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) != 0 {
			t.Errorf("%s: oversized query must have no embeddings", m.Name())
		}
	}
}

func TestLabelMismatchNoEmbedding(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}})
	q := graph.MustNew("q", []graph.Label{0, 7}, [][2]int{{0, 1}})
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) != 0 {
			t.Errorf("%s: query with unknown label must have no embeddings", m.Name())
		}
	}
}

// Triangle query vs 6-cycle stored graph: all labels equal, query NOT
// contained (classic non-induced sub-iso check: C3 ⊄ C6).
func TestTriangleNotInHexagon(t *testing.T) {
	hex := graph.MustNew("hex", []graph.Label{0, 0, 0, 0, 0, 0},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	tri := graph.MustNew("tri", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	for _, m := range allMatchers(hex) {
		embs, err := m.Match(context.Background(), tri, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) != 0 {
			t.Errorf("%s: triangle must not embed into hexagon, got %v", m.Name(), embs)
		}
	}
}

// Non-induced semantics: a path of 3 vertices DOES embed into a triangle
// (the missing edge in the query is allowed to exist in the graph).
func TestNonInducedSemantics(t *testing.T) {
	tri := graph.MustNew("tri", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	path := graph.MustNew("p", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}})
	for _, m := range allMatchers(tri) {
		embs, err := m.Match(context.Background(), path, 100)
		if err != nil {
			t.Fatal(err)
		}
		// 3 choices for middle × 2 orders of endpoints = 6 embeddings
		if len(embs) != 6 {
			t.Errorf("%s: P3 into K3 should have 6 embeddings, got %d", m.Name(), len(embs))
		}
	}
}

func TestDisconnectedQuery(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {2, 3}})
	q := graph.MustNew("q", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {2, 3}})
	ref := match.NewReference(g)
	want, _ := ref.Match(context.Background(), q, 1000)
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(embs) != len(want) {
			t.Errorf("%s: disconnected query: %d embeddings, reference %d",
				m.Name(), len(embs), len(want))
		}
	}
}
