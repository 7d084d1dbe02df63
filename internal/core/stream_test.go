package core

// Tests for the streaming race path: adoption on first emission, empty
// races, sink-driven early termination and parity with the slice path.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/gql"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
	"github.com/psi-graph/psi/internal/vf2"
)

// streamTestGraph is a connected 30-vertex graph over two labels and the
// path 0-1-0, which it holds many times.
func streamTestGraph() (*graph.Graph, *graph.Graph) {
	return difftest.Graph(rand.New(rand.NewSource(7)), 30, 40, 2), graph.MustNew("q", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
}

// raceStream runs racer's streamed race and returns what reached a sink that
// keeps every embedding and asks for more while more says so.
func raceStream(racer *Racer, q *graph.Graph, limit int, attempts []Attempt, more func(n int) bool) ([]match.Embedding, Result, error) {
	var got []match.Embedding
	res, err := racer.RaceStream(context.Background(), q, limit, attempts, match.SinkFunc(func(e match.Embedding) bool {
		got = append(got, e)
		return more(len(got))
	}))
	return got, res, err
}

// always is a raceStream sink rule that never stops.
func always(int) bool { return true }

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
	got, res, err := raceStream(racer, q, 100000, attempts, always)
	if err != nil || len(got) != len(want.Embeddings) {
		t.Fatalf("streamed %d embeddings (%v), slice race found %d", len(got), err, len(want.Embeddings))
	}
	// RaceStream counts what it streams and materializes none of it.
	if res.Found != len(got) || res.Embeddings != nil || res.Found == 0 {
		t.Errorf("Result.Found = %d with %d materialized; sink saw %d", res.Found, len(res.Embeddings), len(got))
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
	got, res, err := raceStream(racer, q, 100000, attempts, func(int) bool { return false })
	if err != nil || len(got) != 1 || res.Found != 1 || res.WinnerIndex < 0 || res.WinnerIndex >= len(attempts) {
		t.Fatalf("emitted %d / Found %d, winner %d (%v); want exactly 1 from one of %d attempts", len(got), res.Found, res.WinnerIndex, err, len(attempts))
	}
}

// TestStreamRaceCancelsLosersAtAdoption: adoption cancels every other
// contender at once, while the adopted one is still streaming, not when the
// race returns. The winner here finishes only after the loser has seen its
// cancellation.
func TestStreamRaceCancelsLosersAtAdoption(t *testing.T) {
	loserCancelled := make(chan struct{})
	winner, err := streamRace(context.Background(), 2, func(i int) string { return "c" }, func(task func()) { go task() },
		func(ctx context.Context, i int, claim func() bool) error {
			if i == 1 {
				<-ctx.Done()
				close(loserCancelled)
				return ctx.Err()
			}
			claim()
			select {
			case <-loserCancelled:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("the loser was not cancelled at adoption")
			}
		})
	if err != nil || winner != 0 {
		t.Fatalf("winner %d, err %v; want contender 0 and no error", winner, err)
	}
}

// TestStreamRaceRefusesALateClaim: a contender that reaches its first
// emission after another was adopted is refused, and its error — whatever
// it stopped with — is not the race's. Contender 0 claims and then waits for
// contender 1 to claim and be refused, so the refusal happens on every
// schedule.
func TestStreamRaceRefusesALateClaim(t *testing.T) {
	claimed, refused := make(chan struct{}), make(chan struct{})
	winner, err := streamRace(context.Background(), 2, func(i int) string { return "c" }, func(task func()) { go task() },
		func(ctx context.Context, i int, claim func() bool) error {
			if i == 1 {
				<-claimed
				if claim() {
					return errors.New("a second contender was adopted")
				}
				close(refused)
				return errors.New("stopped after losing the claim")
			}
			if !claim() {
				return errors.New("the first claim was refused")
			}
			close(claimed)
			<-refused
			return nil
		})
	if err != nil || winner != 0 {
		t.Fatalf("winner %d, err %v; want contender 0 and no error", winner, err)
	}
}

// TestRaceStreamEmptyAnswer: a query with no embeddings wins an empty race
// with Found == 0 and no error.
func TestRaceStreamEmptyAnswer(t *testing.T) {
	hex := graph.MustNew("hex", []graph.Label{0, 0, 0, 0, 0, 0},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	tri := graph.MustNew("tri", []graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if got, res, err := raceStream(NewRacer(hex), tri, 10, streamAttempts(hex), always); err != nil || len(got) != 0 || res.Found != 0 {
		t.Fatalf("empty race emitted %v and reported Found=%d (%v)", got, res.Found, err)
	}
}

// TestRaceStreamDecisionLimit: limit <= 0 streams exactly one embedding.
func TestRaceStreamDecisionLimit(t *testing.T) {
	g, q := streamTestGraph()
	if got, res, err := raceStream(NewRacer(g), q, 0, streamAttempts(g), always); err != nil || len(got) != 1 || res.Found != 1 {
		t.Fatalf("decision stream emitted %d / Found %d (%v), want 1", len(got), res.Found, err)
	}
}

// TestRaceStreamSingleEmitter: only one attempt's embeddings ever reach
// the sink, even under a wide portfolio racing concurrently.
func TestRaceStreamSingleEmitter(t *testing.T) {
	g, q := streamTestGraph()
	racer := NewRacer(g)
	attempts := streamAttempts(g)
	for i := 0; i < 50; i++ {
		want, res, err := raceStream(racer, q, 1000, attempts, always)
		if err != nil {
			t.Fatal(err)
		}
		// The winner's own slice-path enumeration must reproduce the
		// stream exactly: interleaving two attempts would break this.
		direct, err := racer.Race(context.Background(), q, 1000, []Attempt{attempts[res.WinnerIndex]})
		if err != nil || !slices.EqualFunc(direct.Embeddings, want, slices.Equal[match.Embedding]) {
			t.Fatalf("iter %d: a stream of %d embeddings; the winner alone finds %d in another order (%v)", i, len(want), len(direct.Embeddings), err)
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

// TestStreamEarlyStopIsAnswerPrefix: stopping a stream early must truncate
// cleanly to a prefix of the full ascending answer.
func TestStreamEarlyStopIsAnswerPrefix(t *testing.T) {
	x, gate := newGated(t, 20)
	close(gate.release) // verifications pass immediately
	kinds := []rewrite.Kind{rewrite.Orig, rewrite.DND}
	want, _, err := collect(context.Background(), nil, kinds, x, gate, edge)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 20 || !slices.IsSorted(want) {
		t.Fatalf("full stream %v, want 20 ascending ids", want)
	}
	var firstThree []int
	if _, err := StreamFTV(context.Background(), nil, x, gate, skewed, kinds, edge, func(id int) bool {
		firstThree = append(firstThree, id)
		return len(firstThree) < 3
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(firstThree, want[:3]) {
		t.Fatalf("early-stopped stream %v is not the answer prefix of %v", firstThree, want)
	}
}
