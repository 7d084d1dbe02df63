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
	"slices"
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
	return slices.EqualFunc(a, b, slices.Equal[match.Embedding])
}

// stream drains m's MatchStream of q into a slice, keeping every embedding
// it is handed; the sink stops after stop embeddings (0: never).
func stream(ctx context.Context, m match.StreamMatcher, q *graph.Graph, limit, stop int) ([]match.Embedding, error) {
	var out []match.Embedding
	err := m.MatchStream(ctx, q, limit, match.SinkFunc(func(e match.Embedding) bool {
		out = append(out, e)
		return stop == 0 || len(out) < stop
	}))
	return out, err
}

// planted draws a connected stored graph (difftest.Graph) and a query of up
// to edges edges extracted from it, so at least the planted embedding exists.
func planted(seed int64, n, extra, labels, edges int) (g, q *graph.Graph) {
	r := rand.New(rand.NewSource(seed))
	g = difftest.Graph(r, n, extra, labels)
	return g, workload.Extract(r, g, edges)
}

// wantCount holds every matcher to want embeddings of q in g at limit, each
// one a valid embedding.
func wantCount(t *testing.T, g, q *graph.Graph, limit, want int) {
	t.Helper()
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, limit)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(embs) != want {
			t.Errorf("%s: %d embeddings of %v in %v at limit %d, want %d", m.Name(), len(embs), q, g, limit, want)
		}
		for _, e := range embs {
			if err := match.VerifyEmbedding(q, g, e); err != nil {
				t.Errorf("%s: %v", m.Name(), err)
			}
		}
	}
}

// agreesWithReference reports whether every matcher finds as many embeddings
// of q in g at limit as the reference matcher, each one valid: at limit 1,
// the same decision.
func agreesWithReference(g, q *graph.Graph, limit int) bool {
	want, err := match.NewReference(g).Match(context.Background(), q, limit)
	if err != nil {
		return false
	}
	for _, m := range allMatchers(g) {
		got, err := m.Match(context.Background(), q, limit)
		if err != nil || len(got) != len(want) {
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

// TestStreamingParityWithSlicePath is the tentpole's safety net: for every
// matcher, the sink-collected stream must be byte-identical — same
// embeddings, same order — to the Match slice path, across random graphs,
// query shapes and limits, including the empty query. The stream's
// embeddings are kept and compared after the search ends, so a stream that
// aliased the search's scratch buffer would fail here too.
func TestStreamingParityWithSlicePath(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		g := difftest.Graph(r, 10+r.Intn(15), 10, 2)
		q := graph.MustNew("empty", nil, nil)
		switch trial % 3 {
		case 0:
			q = workload.Extract(r, g, 2+r.Intn(4))
		case 1:
			q = difftest.Graph(r, 3+r.Intn(3), 2, 2) // may be absent
		}
		for _, limit := range []int{1, 7, 100000} {
			for _, m := range allStreamMatchers(g) {
				want, err := m.Match(ctx, q, limit)
				got, serr := stream(ctx, m, q, limit, 0)
				if err != nil || serr != nil || !embeddingsEqual(got, want) {
					t.Fatalf("trial %d %s limit %d: stream %v (%v) != slice %v (%v)", trial, m.Name(), limit, got, serr, want, err)
				}
			}
		}
	}
}

// TestStreamingMidStreamCancellation stops the sink after k embeddings:
// the search must terminate with a nil error having emitted exactly k, and
// those k must be the first k of the slice path.
func TestStreamingMidStreamCancellation(t *testing.T) {
	ctx := context.Background()
	g, q := planted(22, 20, 30, 1, 3) // single label: many embeddings
	const lim = 100000
	for _, m := range allStreamMatchers(g) {
		full, err := m.Match(ctx, q, lim)
		if err != nil || len(full) < 5 {
			t.Fatalf("%s: %d embeddings (%v); the test graph is too sparse", m.Name(), len(full), err)
		}
		for _, k := range []int{1, 3, len(full) - 1} {
			if got, err := stream(ctx, m, q, lim, k); err != nil || !embeddingsEqual(got, full[:k]) {
				t.Fatalf("%s: a sink stopping at %d got %d embeddings and %v, want the slice path's first %d and nil", m.Name(), k, len(got), err, k)
			}
		}
	}
}

// TestStreamingDecisionSemantics checks limit <= 0 streams exactly one
// embedding (the decision convention), for both 0 and negative limits.
func TestStreamingDecisionSemantics(t *testing.T) {
	g, q := planted(23, 15, 10, 1, 2)
	for _, limit := range []int{0, -3} {
		for _, m := range allStreamMatchers(g) {
			if got, err := stream(context.Background(), m, q, limit, 0); err != nil || len(got) != 1 {
				t.Errorf("%s: limit %d streamed %d embeddings (%v), want exactly one", m.Name(), limit, len(got), err)
			}
		}
	}
}

// TestStreamingCancelledContext mirrors TestCancelledContext for the
// streaming path: a dead context must surface as an error promptly.
func TestStreamingCancelledContext(t *testing.T) {
	g, q := planted(24, 200, 1500, 1, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range allStreamMatchers(g) {
		if _, err := stream(ctx, m, q, 1000000, 0); err == nil {
			t.Errorf("%s: expected context error from streaming match", m.Name())
		}
	}
}

func TestPlantedQueryIsFound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := difftest.Graph(r, 20+r.Intn(30), 20, 3)
		wantCount(t, g, workload.Extract(r, g, 3+r.Intn(6)), 1, 1)
	}
}

func TestDecisionAgreesWithReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := difftest.Graph(r, 8+r.Intn(10), 6, 3)
		return agreesWithReference(g, difftest.Graph(r, 3+r.Intn(4), 2, 3), 1) // a query present or not
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEmbeddingCountAgreesWithReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := difftest.Graph(r, 7+r.Intn(6), 4, 2)
		return agreesWithReference(g, workload.Extract(r, g, 2+r.Intn(3)), 100000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Embeddings must be pairwise distinct: enumerating the same mapping twice
// would inflate counts.
func TestEmbeddingsDistinct(t *testing.T) {
	g, q := planted(3, 12, 8, 2, 4)
	for _, m := range allMatchers(g) {
		embs, err := m.Match(context.Background(), q, 100000)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, e := range embs {
			if seen[embeddingKey(e)] {
				t.Fatalf("%s: duplicate embedding %v", m.Name(), e)
			}
			seen[embeddingKey(e)] = true
		}
	}
}

func TestLimitRespected(t *testing.T) {
	g, q := planted(4, 30, 40, 1, 2) // single label: many embeddings
	wantCount(t, g, q, 5, 5)
}

func TestDecisionLimitZeroMeansOne(t *testing.T) {
	g, q := planted(5, 15, 10, 1, 2)
	wantCount(t, g, q, 0, 1)
}

func TestCancelledContext(t *testing.T) {
	g, q := planted(6, 200, 1500, 1, 8) // single label: enumeration would take a long time
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range allMatchers(g) {
		start := time.Now()
		if _, err := m.Match(ctx, q, 1000000); err == nil || time.Since(start) > 2*time.Second {
			t.Errorf("%s: a cancelled search returned %v after %v, want a context error at once", m.Name(), err, time.Since(start))
		}
	}
}

func TestDeadlineExceeded(t *testing.T) {
	g, q := planted(7, 300, 3000, 1, 10)
	for _, m := range allMatchers(g) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := m.Match(ctx, q, 1<<30)
		cancel()
		// The search may finish legitimately; only the wrong error fails.
		if err != nil && err != context.DeadlineExceeded {
			t.Errorf("%s: unexpected error %v", m.Name(), err)
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

// checkRankings holds every matcher's search of q under each structured
// rewriting's ranking to its plain search's count, each embedding a valid
// embedding of the query.
func checkRankings(t *testing.T, g, q *graph.Graph) {
	t.Helper()
	const lim = 100000
	freq := rewrite.FrequenciesOf(g)
	for _, m := range allMatchers(g) {
		orig, err := m.Match(context.Background(), q, lim)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range rewrite.Structured {
			got, err := rankedMatch(m, q, rewrite.Compute(q, freq, k, 0), lim)
			if err != nil || len(got) != len(orig) {
				t.Fatalf("%s/%v: %d embeddings (%v) vs %d for original", m.Name(), k, len(got), err, len(orig))
			}
			for _, e := range got {
				if err := match.VerifyEmbedding(q, g, e); err != nil {
					t.Fatalf("%s/%v: invalid embedding: %v", m.Name(), k, err)
				}
			}
		}
	}
}

// A query searched under any rewriting's ranking must produce the same
// embedding count, each a valid embedding of the query.
func TestRewritingPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		g := difftest.Graph(r, 10+r.Intn(8), 6, 2)
		checkRankings(t, g, workload.Extract(r, g, 3+r.Intn(3)))
	}
}

func TestEmptyQuery(t *testing.T) {
	wantCount(t, graph.MustNew("g", []graph.Label{0, 1}, [][2]int{{0, 1}}), graph.MustNew("q", nil, nil), 10, 1)
}

func TestQueryLargerThanGraph(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 0}, [][2]int{{0, 1}})
	wantCount(t, g, graph.MustNew("q", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}}), 10, 0)
}

func TestLabelMismatchNoEmbedding(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}})
	wantCount(t, g, graph.MustNew("q", []graph.Label{0, 7}, [][2]int{{0, 1}}), 10, 0)
}

// Triangle query vs 6-cycle stored graph: all labels equal, query NOT
// contained (classic non-induced sub-iso check: C3 ⊄ C6).
func TestTriangleNotInHexagon(t *testing.T) {
	hex := graph.MustNew("hex", []graph.Label{0, 0, 0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	wantCount(t, hex, graph.MustNew("tri", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 0}}), 10, 0)
}

// Non-induced semantics: a path of 3 vertices DOES embed into a triangle
// (the missing edge in the query is allowed to exist in the graph): 3
// choices for the middle × 2 orders of the endpoints = 6 embeddings.
func TestNonInducedSemantics(t *testing.T) {
	tri := graph.MustNew("tri", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	wantCount(t, tri, graph.MustNew("p", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}}), 100, 6)
}

// TestDisconnectedQuery: each of the query's two edges maps onto either
// stored edge, the other onto the other, so there are two embeddings.
func TestDisconnectedQuery(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {2, 3}})
	wantCount(t, g, g, 1000, 2)
}
