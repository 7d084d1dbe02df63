package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/gql"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/quicksi"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
	"github.com/psi-graph/psi/internal/vf2"
)

func randomStored(r *rand.Rand, n, extra, labels int) *graph.Graph {
	b := graph.NewBuilder("g")
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
	}
	for v := 1; v < n; v++ {
		if err := b.AddEdge(r.Intn(v), v); err != nil {
			panic(err)
		}
	}
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

func extractQuery(r *rand.Rand, g *graph.Graph, wantEdges int) *graph.Graph {
	start := r.Intn(g.N())
	inQ := map[int32]bool{int32(start): true}
	type edge struct{ u, v int32 }
	var qEdges []edge
	has := func(a, b int32) bool {
		for _, e := range qEdges {
			if (e.u == a && e.v == b) || (e.u == b && e.v == a) {
				return true
			}
		}
		return false
	}
	for len(qEdges) < wantEdges {
		var frontier []edge
		for v := range inQ {
			for _, w := range g.Neighbors(int(v)) {
				if !has(v, w) {
					frontier = append(frontier, edge{v, w})
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[r.Intn(len(frontier))]
		qEdges = append(qEdges, e)
		inQ[e.u] = true
		inQ[e.v] = true
	}
	ids := make([]int32, 0, len(inQ))
	for v := range inQ {
		ids = append(ids, v)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	old2new := make(map[int32]int, len(ids))
	b := graph.NewBuilder("q")
	for i, v := range ids {
		old2new[v] = i
		b.AddVertex(g.Label(int(v)))
	}
	for _, e := range qEdges {
		if err := b.AddEdge(old2new[e.u], old2new[e.v]); err != nil {
			panic(err)
		}
	}
	return b.MustBuild()
}

func TestRaceFindsPlantedQuery(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomStored(r, 40, 30, 3)
	racer := NewRacer(g)
	attempts := append(
		Portfolio([]match.Matcher{gql.New(g)}, []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.DND}),
		Portfolio([]match.Matcher{spath.New(g)}, []rewrite.Kind{rewrite.Orig})...,
	)
	for trial := 0; trial < 15; trial++ {
		q := extractQuery(r, g, 3+r.Intn(5))
		res, err := racer.Race(context.Background(), q, 1, attempts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Contained() {
			t.Fatalf("trial %d: planted query not found by %s", trial, res.Winner.Label())
		}
		verifyAll(t, q, g, res)
		if res.Attempts != len(attempts) {
			t.Errorf("Attempts = %d", res.Attempts)
		}
		if res.WinnerIndex < 0 || res.WinnerIndex >= len(attempts) {
			t.Errorf("WinnerIndex = %d", res.WinnerIndex)
		}
	}
}

func TestRaceAgreesWithSingleAlgorithm(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := randomStored(r, 20, 12, 2)
	racer := NewRacer(g)
	matchers := []match.Matcher{vf2.New(g), quicksi.New(g), gql.New(g), spath.New(g)}
	attempts := Portfolio(matchers, []rewrite.Kind{rewrite.Orig, rewrite.ILFDND})
	ref := match.NewReference(g)
	for trial := 0; trial < 20; trial++ {
		q := randomStored(r, 3+r.Intn(3), 2, 2) // may or may not be contained
		want, err := ref.Match(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := racer.Race(context.Background(), q, 1, attempts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Contained() != (len(want) > 0) {
			t.Fatalf("trial %d: race says %v, reference says %v (winner %s)",
				trial, res.Contained(), len(want) > 0, res.Winner.Label())
		}
		verifyAll(t, q, g, res)
	}
}

func TestRaceEmptyAttempts(t *testing.T) {
	racer := &Racer{}
	_, err := racer.Race(context.Background(), graph.MustNew("q", nil, nil), 1, nil)
	if err == nil {
		t.Error("expected error for empty attempt list")
	}
}

// slowMatcher blocks until cancelled; used to prove the race returns as
// soon as one attempt finishes and cancels stragglers.
type slowMatcher struct {
	cancelled atomic.Bool
}

func (s *slowMatcher) Name() string { return "SLOW" }
func (s *slowMatcher) Match(ctx context.Context, q *graph.Graph, limit int) ([]match.Embedding, error) {
	<-ctx.Done()
	s.cancelled.Store(true)
	return nil, ctx.Err()
}

func TestRaceCancelsLosers(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 0}, [][2]int{{0, 1}})
	q := graph.MustNew("q", []graph.Label{0}, nil)
	slow := &slowMatcher{}
	racer := NewRacer(g)
	attempts := []Attempt{
		{Matcher: slow, Rewriting: rewrite.Orig},
		{Matcher: vf2.New(g), Rewriting: rewrite.Orig},
	}
	res, err := racer.Race(context.Background(), q, 1, attempts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner.Matcher.Name() != "VF2" {
		t.Errorf("winner = %s, want VF2", res.Winner.Matcher.Name())
	}
	// give the loser a moment to observe cancellation
	deadline := time.Now().Add(2 * time.Second)
	for !slow.cancelled.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !slow.cancelled.Load() {
		t.Error("loser was not cancelled")
	}
}

func TestRaceParentCancellation(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 0}, [][2]int{{0, 1}})
	q := graph.MustNew("q", []graph.Label{0}, nil)
	racer := NewRacer(g)
	attempts := []Attempt{{Matcher: &slowMatcher{}, Rewriting: rewrite.Orig}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := racer.Race(ctx, q, 1, attempts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

// failMatcher returns a non-context error.
type failMatcher struct{}

func (failMatcher) Name() string { return "FAIL" }
func (failMatcher) Match(context.Context, *graph.Graph, int) ([]match.Embedding, error) {
	return nil, errors.New("boom")
}

func TestRaceAllAttemptsFail(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0}, nil)
	q := graph.MustNew("q", []graph.Label{0}, nil)
	racer := NewRacer(g)
	attempts := []Attempt{
		{Matcher: failMatcher{}, Rewriting: rewrite.Orig},
		{Matcher: failMatcher{}, Rewriting: rewrite.IND},
	}
	_, err := racer.Race(context.Background(), q, 1, attempts)
	if err == nil {
		t.Fatal("expected joined error")
	}
}

func TestRaceSurvivesOneFailingAttempt(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 0}, [][2]int{{0, 1}})
	q := graph.MustNew("q", []graph.Label{0}, nil)
	racer := NewRacer(g)
	attempts := []Attempt{
		{Matcher: failMatcher{}, Rewriting: rewrite.Orig},
		{Matcher: vf2.New(g), Rewriting: rewrite.Orig},
	}
	res, err := racer.Race(context.Background(), q, 1, attempts)
	if err != nil {
		t.Fatalf("race should survive a failing attempt: %v", err)
	}
	if !res.Contained() {
		t.Error("expected containment")
	}
}

func TestRaceMapsEmbeddingsBack(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomStored(r, 25, 15, 3)
	racer := NewRacer(g)
	q := extractQuery(r, g, 5)
	for _, k := range rewrite.Structured {
		attempts := []Attempt{{Matcher: vf2.New(g), Rewriting: k}}
		res, err := racer.Race(context.Background(), q, 3, attempts)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !res.Contained() {
			t.Fatalf("%v: not found", k)
		}
		verifyAll(t, q, g, res)
	}
}

// verifyAll fails t unless every embedding res returned is one of q in g.
func verifyAll(t *testing.T, q, g *graph.Graph, res Result) {
	t.Helper()
	for _, e := range res.Embeddings {
		if err := match.VerifyEmbedding(q, g, e); err != nil {
			t.Fatalf("winner %s returned an invalid embedding: %v", res.Winner.Label(), err)
		}
	}
}

func TestRaceEmbeddingCountMatchesDirectRun(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := randomStored(r, 15, 8, 2)
	q := extractQuery(r, g, 3)
	direct, err := vf2.Match(context.Background(), q, g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	racer := NewRacer(g)
	attempts := Portfolio([]match.Matcher{vf2.New(g)}, append([]rewrite.Kind{rewrite.Orig}, rewrite.Structured...))
	res, err := racer.Race(context.Background(), q, 1000, attempts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Embeddings) != len(direct) {
		t.Errorf("race returned %d embeddings, direct run %d", len(res.Embeddings), len(direct))
	}
}

// TestRaceAllocsPerEmbedding: an attempt under a rewriting searches the
// caller's query, so each embedding past the first few costs the collector's
// one clone and the result slice's growth, and no copy mapped back.
func TestRaceAllocsPerEmbedding(t *testing.T) {
	// A label-1 hub with 60 label-0 leaves holds 60·59 embeddings of the
	// 0-1-0 path.
	labels := []graph.Label{1}
	var edges [][2]int
	for v := 1; v <= 60; v++ {
		labels = append(labels, 0)
		edges = append(edges, [2]int{0, v})
	}
	g := graph.MustNew("star", labels, edges)
	q := graph.MustNew("q", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	racer := NewRacer(g)
	attempts := []Attempt{{Matcher: gql.New(g), Rewriting: rewrite.DND}}
	allocs := func(limit int) float64 {
		return testing.AllocsPerRun(50, func() {
			if res, err := racer.Race(context.Background(), q, limit, attempts); err != nil || res.Found != limit {
				t.Fatalf("limit %d: found %d, %v", limit, res.Found, err)
			}
		})
	}
	const few, many = 10, 1000
	// append's reallocations of the result past its first few entries
	regrowths := 0
	var s []match.Embedding
	for len(s) < many {
		if len(s) >= few && len(s) == cap(s) {
			regrowths++
		}
		s = append(s, nil)
	}
	// One more for AllocsPerRun's rounding down of each mean.
	extra, bound := allocs(many)-allocs(few), float64(many-few+regrowths+1)
	t.Logf("%.0f allocations for %d more embeddings", extra, many-few)
	if extra > bound {
		t.Errorf("%d more embeddings cost %.0f allocations, more than one clone each, %d regrowths and 1 for rounding", many-few, extra, regrowths)
	}
}

func TestAttemptLabel(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0}, nil)
	a := Attempt{Matcher: gql.New(g), Rewriting: rewrite.ILFIND}
	if a.Label() != "GQL-ILF+IND" {
		t.Errorf("Label = %q", a.Label())
	}
}

func TestPortfolioShape(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0}, nil)
	ms := []match.Matcher{gql.New(g), spath.New(g)}
	ks := []rewrite.Kind{rewrite.Orig, rewrite.DND}
	p := Portfolio(ms, ks)
	if len(p) != 4 {
		t.Fatalf("portfolio size = %d", len(p))
	}
	// Ψ([GQL/SPA]-[Or/DND]): both algorithms appear with both rewritings
	seen := make(map[string]bool)
	for _, a := range p {
		seen[a.Label()] = true
	}
	for _, want := range []string{"GQL-Orig", "SPA-Orig", "GQL-DND", "SPA-DND"} {
		if !seen[want] {
			t.Errorf("missing attempt %s", want)
		}
	}
}

// funcRace is a firstDone contender made of plain functions.
type funcRace []func(ctx context.Context) (int, error)

func (f funcRace) label(i int) string                          { return fmt.Sprintf("c%d", i) }
func (f funcRace) run(ctx context.Context, i int) (int, error) { return f[i](ctx) }

// TestFirstDone holds every behaviour Racer.Race's and raceInstances' own
// loops had before they became firstDone.
func TestFirstDone(t *testing.T) {
	value := func(v int) func(context.Context) (int, error) {
		return func(context.Context) (int, error) { return v, nil }
	}
	fail := func(msg string) func(context.Context) (int, error) {
		return func(context.Context) (int, error) { return 0, errors.New(msg) }
	}
	panics := func(context.Context) (int, error) { panic("kaboom") }
	// blocked runs until its context dies and reports what it saw.
	sawCancel := make(chan error, 4)
	blocked := func(ctx context.Context) (int, error) {
		<-ctx.Done()
		sawCancel <- ctx.Err()
		return 0, ctx.Err()
	}
	cases := []struct {
		name       string
		race       funcRace
		timeout    time.Duration // > 0: the caller's context expires
		wantWinner int
		wantVal    int
		wantIs     error    // errors.Is target of the failure
		wantIn     []string // substrings of the failure
		wantNotIn  string
		losers     int // contenders that must observe the adoption's cancel
	}{
		{name: "first finisher wins and losers are cancelled",
			race: funcRace{blocked, value(7), blocked}, wantWinner: 1, wantVal: 7, losers: 2},
		{name: "a failure does not decide the race",
			race: funcRace{fail("boom"), value(3)}, wantWinner: 1, wantVal: 3},
		{name: "all fail: joined errors, each under its label",
			race: funcRace{fail("boom"), fail("bang")}, wantWinner: -1,
			wantIn: []string{"c0: boom", "c1: bang"}},
		{name: "caller cancelled: the context's error, not the join",
			race: funcRace{blocked, blocked}, timeout: 20 * time.Millisecond, wantWinner: -1,
			wantIs: context.DeadlineExceeded, wantNotIn: "c0:", losers: 2},
		{name: "a panic is that contender's error",
			race: funcRace{panics}, wantWinner: -1, wantIn: []string{"c0: psi: attempt panic: kaboom"}},
		{name: "a panicking contender loses to a finisher",
			race: funcRace{panics, value(5)}, wantWinner: 1, wantVal: 5},
		{name: "n = 1", race: funcRace{value(9)}, wantWinner: 0, wantVal: 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if tc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			winner, val, err := firstDone(ctx, nil, len(tc.race), tc.race)
			if winner != tc.wantWinner || val != tc.wantVal {
				t.Errorf("winner, val = %d, %d, want %d, %d", winner, val, tc.wantWinner, tc.wantVal)
			}
			if (err != nil) != (tc.wantWinner < 0) {
				t.Fatalf("err = %v with winner %d", err, tc.wantWinner)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Errorf("err = %v, want %v", err, tc.wantIs)
			}
			for _, sub := range tc.wantIn {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("err = %q, want it to contain %q", err, sub)
				}
			}
			if tc.wantNotIn != "" && strings.Contains(err.Error(), tc.wantNotIn) {
				t.Errorf("err = %q must not contain %q", err, tc.wantNotIn)
			}
			for i := 0; i < tc.losers; i++ {
				select {
				case cerr := <-sawCancel:
					if cerr == nil {
						t.Error("loser returned without a cancelled context")
					}
				case <-time.After(2 * time.Second):
					t.Fatal("a loser never saw its context cancelled")
				}
			}
		})
	}
}
