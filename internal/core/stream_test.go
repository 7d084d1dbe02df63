package core

// Tests for the streaming race path: adoption on first emission, empty
// races, sink-driven early termination and parity with the slice path.

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/gql"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
	"github.com/psi-graph/psi/internal/vf2"
)

func streamTestGraph() (*graph.Graph, *graph.Graph) {
	r := rand.New(rand.NewSource(7))
	b := graph.NewBuilder("g")
	const n = 30
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(2)))
	}
	for v := 1; v < n; v++ {
		if err := b.AddEdge(r.Intn(v), v); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 40; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdgePending(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	g := b.MustBuild()
	q := graph.MustNew("q", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	return g, q
}

func streamAttempts(g *graph.Graph) []Attempt {
	return Portfolio(
		[]match.Matcher{vf2.New(g), gql.New(g), spath.New(g)},
		[]rewrite.Kind{rewrite.Orig, rewrite.DND})
}

// TestRaceStreamMatchesRaceCount: the streamed embedding count must equal
// the slice race's count (all attempts are isomorphic), and every streamed
// embedding must be valid against the original query.
func TestRaceStreamMatchesRaceCount(t *testing.T) {
	g, q := streamTestGraph()
	racer := NewRacer(g)
	attempts := streamAttempts(g)
	want, err := racer.Race(context.Background(), q, 100000, attempts)
	if err != nil {
		t.Fatal(err)
	}
	var got []match.Embedding
	res, err := racer.RaceStream(context.Background(), q, 100000, attempts,
		match.SinkFunc(func(e match.Embedding) bool {
			got = append(got, e)
			return true
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Embeddings) {
		t.Fatalf("streamed %d embeddings, slice race found %d", len(got), len(want.Embeddings))
	}
	if res.Found != len(got) {
		t.Errorf("Result.Found = %d, sink saw %d", res.Found, len(got))
	}
	if res.Embeddings != nil {
		t.Error("RaceStream must not materialize embeddings in the Result")
	}
	if !res.Contained() {
		t.Error("Contained() must be true for a non-empty stream")
	}
	for _, e := range got {
		if verr := match.VerifyEmbedding(q, g, e); verr != nil {
			t.Fatalf("streamed embedding invalid against original query: %v", verr)
		}
	}
}

// TestRaceStreamFirstEmissionStopsRace: a sink that declines after the
// first embedding ends the race with Found == 1 — the decision-query
// shape — and a sane winner.
func TestRaceStreamFirstEmissionStopsRace(t *testing.T) {
	g, q := streamTestGraph()
	racer := NewRacer(g)
	attempts := streamAttempts(g)
	emitted := 0
	res, err := racer.RaceStream(context.Background(), q, 100000, attempts,
		match.SinkFunc(func(match.Embedding) bool {
			emitted++
			return false
		}))
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1 || res.Found != 1 {
		t.Fatalf("emitted %d / Found %d, want exactly 1", emitted, res.Found)
	}
	if res.WinnerIndex < 0 || res.WinnerIndex >= len(attempts) {
		t.Fatalf("WinnerIndex %d out of range", res.WinnerIndex)
	}
}

// TestRaceStreamEmptyAnswer: a query with no embeddings wins an empty race
// with Found == 0 and no error.
func TestRaceStreamEmptyAnswer(t *testing.T) {
	hex := graph.MustNew("hex", []graph.Label{0, 0, 0, 0, 0, 0},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	tri := graph.MustNew("tri", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	racer := NewRacer(hex)
	res, err := racer.RaceStream(context.Background(), tri, 10, streamAttempts(hex),
		match.SinkFunc(func(match.Embedding) bool {
			t.Error("empty race must not emit")
			return false
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != 0 || res.Contained() {
		t.Fatalf("empty race reported Found=%d Contained=%v", res.Found, res.Contained())
	}
}

// TestRaceStreamDecisionLimit: limit <= 0 streams exactly one embedding.
func TestRaceStreamDecisionLimit(t *testing.T) {
	g, q := streamTestGraph()
	racer := NewRacer(g)
	emitted := 0
	res, err := racer.RaceStream(context.Background(), q, 0, streamAttempts(g),
		match.SinkFunc(func(match.Embedding) bool {
			emitted++
			return true
		}))
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1 || res.Found != 1 {
		t.Fatalf("decision stream emitted %d / Found %d, want 1", emitted, res.Found)
	}
}

// TestRaceStreamSingleEmitter: only one attempt's embeddings ever reach
// the sink, even under a wide portfolio racing concurrently.
func TestRaceStreamSingleEmitter(t *testing.T) {
	g, q := streamTestGraph()
	racer := NewRacer(g)
	attempts := streamAttempts(g)
	for i := 0; i < 50; i++ {
		var want []match.Embedding
		res, err := racer.RaceStream(context.Background(), q, 1000, attempts,
			match.SinkFunc(func(e match.Embedding) bool {
				want = append(want, e)
				return true
			}))
		if err != nil {
			t.Fatal(err)
		}
		// The winner's own slice-path enumeration must reproduce the
		// stream exactly: interleaving two attempts would break this.
		direct, err := racer.Race(context.Background(), q, 1000, []Attempt{res.Winner})
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.Embeddings) != len(want) {
			t.Fatalf("iter %d: stream has %d embeddings, winner alone finds %d", i, len(want), len(direct.Embeddings))
		}
		for j, e := range direct.Embeddings {
			if !slices.Equal(e, want[j]) {
				t.Fatalf("iter %d: stream diverges from winner's own order at %d", i, j)
			}
		}
	}
}

// TestRaceStreamParentCancellation: cancelling the caller's context while
// the adopted attempt is mid-stream surfaces as an error.
func TestRaceStreamParentCancellation(t *testing.T) {
	// A label-1 hub with 60 label-0 leaves holds 60·59 embeddings of the
	// 0-1-0 path, so thousands of search steps remain after the first
	// emission and the matcher's budget must poll the cancelled context.
	labels := []graph.Label{1}
	var edges [][2]int
	for v := 1; v <= 60; v++ {
		labels = append(labels, 0)
		edges = append(edges, [2]int{0, v})
	}
	g := graph.MustNew("star", labels, edges)
	_, q := streamTestGraph()
	racer := NewRacer(g)
	ctx, cancel := context.WithCancel(context.Background())
	var streamed atomic.Int64
	_, err := racer.RaceStream(ctx, q, 1000000, streamAttempts(g),
		match.SinkFunc(func(match.Embedding) bool {
			if streamed.Add(1) == 1 {
				cancel()
				// Give the cancellation time to reach the matcher's budget.
				time.Sleep(time.Millisecond)
			}
			return true
		}))
	cancel()
	if err == nil {
		t.Fatalf("stream finished after %d embeddings despite cancellation", streamed.Load())
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("expected a cancellation error, got %v", err)
	}
}

// TestStreamEarlyStopIsAnswerPrefix: stopping a single-arm stream early must
// truncate cleanly to a prefix of the full ascending answer.
func TestStreamEarlyStopIsAnswerPrefix(t *testing.T) {
	x := newGatedIndex(20)
	close(x.release) // verifications pass immediately
	xs := []index.Index{lifted{x}}
	f := &IndexRacer{Rewritings: []rewrite.Kind{rewrite.Orig, rewrite.DND}}
	q := x.ds[0]
	want, _, err := collect(context.Background(), f, xs, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 20 || !slices.IsSorted(want) {
		t.Fatalf("full stream %v, want 20 ascending ids", want)
	}
	var firstThree []int
	if _, err := f.Stream(context.Background(), xs, rewrite.FrequenciesOfDataset(x.ds), q, nil, func(id int) bool {
		firstThree = append(firstThree, id)
		return len(firstThree) < 3
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(firstThree, want[:3]) {
		t.Fatalf("early-stopped stream %v is not the answer prefix of %v", firstThree, want)
	}
}
