package core

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/leakcheck"
	"github.com/psi-graph/psi/internal/rewrite"
)

// verifyFunc is a stub's decision of one candidate.
type verifyFunc func(ctx context.Context, graphID int) (bool, error)

// stubVerifier is a controllable index.Verifier for race tests: a pluggable
// decision per rewritten instance of the edge query, and a counter recording
// whether it observed cancellation mid-verification. It decides the
// candidates of a small real table (stubTable), whose filter fixes the
// candidate list. Under skewed, Orig's instance of edge keeps label 0 on its
// first vertex and ILF's puts label 1 there, so verify[q.Label(0)] decides
// each contender of an origILF race; a single entry decides every instance.
type stubVerifier struct {
	verify    []verifyFunc
	onVerify  func(q *graph.Graph, graphID int) // optional: observes each verification's instance
	cancelled atomic.Int64                      // verifications that ended on ctx cancellation
}

func (v *stubVerifier) Name() string { return "stub" }

func (v *stubVerifier) Verify(ctx context.Context, _ *index.Path, q *graph.Graph, graphID int) (bool, error) {
	if v.onVerify != nil {
		v.onVerify(q, graphID)
	}
	f := v.verify[0]
	if l := int(q.Label(0)); l < len(v.verify) {
		f = v.verify[l]
	}
	ok, err := f(ctx, graphID)
	if err != nil && ctx.Err() != nil {
		v.cancelled.Add(1)
	}
	return ok, err
}

// edge is the race tests' query: one edge, labelled 0-1.
var edge = graph.MustNew("edge", []graph.Label{0, 1}, [][2]int{{0, 1}})

// stubTable is the one-shard index over n one-edge graphs whose filter keeps
// exactly the graphs of ids for the edge query: those are edge's copies, the
// rest an edge labelled 2-3.
func stubTable(tb testing.TB, n int, ids ...int) *index.Sharded {
	tb.Helper()
	ds := make([]*graph.Graph, n)
	for i := range ds {
		ds[i] = graph.MustNew("g", []graph.Label{2, 3}, [][2]int{{0, 1}})
	}
	for _, id := range ids {
		ds[id] = edge
	}
	x, err := index.Build(context.Background(), index.KindPath, ds, 1, index.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

// blockingVerify blocks until the context dies, recording the cancellation.
func blockingVerify(ctx context.Context, graphID int) (bool, error) {
	<-ctx.Done()
	return false, ctx.Err()
}

func instantVerify(ctx context.Context, graphID int) (bool, error) { return true, nil }

// origILF are two rewritings whose instances of edge a stubVerifier tells
// apart under skewed.
var origILF = []rewrite.Kind{rewrite.Orig, rewrite.ILF}

// skewed are the label frequencies the race tests rewrite under: label 0 is
// common, so ILF ranks edge's label-1 vertex first. Any frequencies give the
// same answers.
var skewed = rewrite.Frequencies{0: 1}

// collect runs StreamFTV over x with v on pool, racing kinds under skewed,
// and gathers the streamed answer and the per-rewriting wins.
func collect(ctx context.Context, pool *exec.Pool, kinds []rewrite.Kind, x *index.Sharded, v index.Verifier, q *graph.Graph) ([]int, []int, error) {
	var ids []int
	wins, err := StreamFTV(ctx, pool, x, v, skewed, kinds, q, func(id int) bool {
		ids = append(ids, id)
		return true
	})
	return ids, wins, err
}

// eventually waits up to five seconds for cond.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIndexRaceAdoptsFirstEmitterAndCancelsLoser is the core acceptance
// scenario of the per-candidate rewriting race: the verifier under two
// rewritings races on every candidate, the fast instance decides each, and
// the slow loser is provably cancelled — every one of its verifications
// observes ctx.Done — with no goroutine outliving the race.
func TestIndexRaceAdoptsFirstEmitterAndCancelsLoser(t *testing.T) {
	x := stubTable(t, 3, 0, 1, 2)
	v := &stubVerifier{verify: []verifyFunc{blockingVerify, instantVerify}}
	pool := exec.New(4)
	t.Cleanup(pool.Close)
	// Warm up so the pool's workers exist before the baseline.
	if _, _, err := collect(context.Background(), pool, origILF, x, v, edge); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the warm-up's losers never observed cancellation", func() bool { return v.cancelled.Load() == 3 })
	v.cancelled.Store(0)
	leakcheck.Check(t, 0)
	ids, wins, err := collect(context.Background(), pool, origILF, x, v, edge)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int{0, 1, 2}) || !slices.Equal(wins, []int{0, 3}) {
		t.Fatalf("ids %v, wins %v; want [0 1 2], every candidate decided by ILF", ids, wins)
	}
	eventually(t, "the losing instance never observed cancellation — losers are not being cancelled", func() bool {
		return v.cancelled.Load() == 3
	})
}

// TestStreamFTVVerifiesEachInstanceOnce: each candidate's race starts
// exactly one verification per prepared instance — the one verifier under
// every rewriting — and the wins are counted per rewriting, here every
// candidate Orig's, whose instance decides at once.
func TestStreamFTVVerifiesEachInstanceOnce(t *testing.T) {
	var mu sync.Mutex
	starts := map[[2]int]int{} // (graph ID, the instance's first label) → verifications
	v := &stubVerifier{verify: []verifyFunc{instantVerify, blockingVerify}, onVerify: func(q *graph.Graph, id int) {
		mu.Lock()
		defer mu.Unlock()
		starts[[2]int{id, int(q.Label(0))}]++
	}}
	ids, wins, err := collect(context.Background(), nil, origILF, stubTable(t, 5, 0, 2, 3), v, edge)
	if err != nil || !slices.Equal(ids, []int{0, 2, 3}) || !slices.Equal(wins, []int{3, 0}) {
		t.Fatalf("ids %v, wins %v, err %v; want [0 2 3], each decided by Orig", ids, wins, err)
	}
	want := map[[2]int]int{{0, 0}: 1, {0, 1}: 1, {2, 0}: 1, {2, 1}: 1, {3, 0}: 1, {3, 1}: 1}
	// A cancelled loser may reach Verify after its candidate is decided.
	eventually(t, "the verifications started are not one per (candidate, instance)", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return maps.Equal(starts, want)
	})
}

// TestIndexRaceRepeatedNoLeak hammers the race to catch slow accretion.
func TestIndexRaceRepeatedNoLeak(t *testing.T) {
	x := stubTable(t, 2, 0, 1)
	v := &stubVerifier{verify: []verifyFunc{instantVerify, blockingVerify}}
	pool := exec.New(2)
	t.Cleanup(pool.Close)
	// Warm-up so transient infrastructure exists before the baseline.
	if _, _, err := collect(context.Background(), pool, origILF, x, v, edge); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, 4)
	for i := 0; i < 200; i++ {
		_, wins, err := collect(context.Background(), pool, origILF, x, v, edge)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wins, []int{2, 0}) {
			t.Fatalf("iteration %d: wins = %v", i, wins)
		}
	}
}

// TestIndexRaceStragglerCannotStarveWinner: a candidate's race runs every
// instance at once, whether or not the pool has a worker free, so a
// straggling instance that holds the only worker cannot keep the fast one
// from deciding the candidate.
func TestIndexRaceStragglerCannotStarveWinner(t *testing.T) {
	x := stubTable(t, 3, 0, 1, 2)
	v := &stubVerifier{verify: []verifyFunc{blockingVerify, instantVerify}}
	pool := exec.New(1)
	t.Cleanup(pool.Close)
	type outcome struct {
		ids, wins []int
		err       error
	}
	done := make(chan outcome, 1)
	go func() {
		ids, wins, err := collect(context.Background(), pool, origILF, x, v, edge)
		done <- outcome{ids, wins, err}
	}()
	select {
	case o := <-done:
		if o.err != nil || !slices.Equal(o.wins, []int{0, 3}) || !slices.Equal(o.ids, []int{0, 1, 2}) {
			t.Fatalf("ids %v, wins %v, err %v; want [0 1 2], all won by ILF", o.ids, o.wins, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the winner's verifications starved behind the straggler's")
	}
}

// indexRace races a stub verifier on every candidate of stubTable(n,
// ids...) under the first len(verify) rewritings of origILF, the i'th
// instance decided by verify[i], through a pool of the given size (0: the
// shared default), and returns the streamed IDs, the per-rewriting wins and
// the error.
func indexRace(t *testing.T, ctx context.Context, workers, n int, ids []int, verify ...verifyFunc) ([]int, []int, error) {
	var pool *exec.Pool
	if workers > 0 {
		pool = exec.New(workers)
		defer pool.Close()
	}
	return collect(ctx, pool, origILF[:len(verify)], stubTable(t, n, ids...), &stubVerifier{verify: verify}, edge)
}

// TestIndexRaceEmptyAnswerWins: a filter with no candidates ends the query
// at once, with an empty answer, whatever its instances would do.
func TestIndexRaceEmptyAnswerWins(t *testing.T) {
	ids, wins, err := indexRace(t, context.Background(), 2, 2, nil, blockingVerify, blockingVerify)
	if err != nil || len(ids) != 0 || !slices.Equal(wins, []int{0, 0}) {
		t.Fatalf("ids %v, wins %v, err %v; want none", ids, wins, err)
	}
}

// TestIndexRaceArmsOutOfPortfolioOrder: the one table filters, and wins
// count by position in the rewriting list, whichever order the caller
// gives; a rewriting that is not listed never runs, and a single one decides
// every candidate.
func TestIndexRaceArmsOutOfPortfolioOrder(t *testing.T) {
	x := stubTable(t, 2, 1)
	var origRan atomic.Bool
	v := &stubVerifier{verify: []verifyFunc{blockingVerify, instantVerify}, onVerify: func(q *graph.Graph, _ int) {
		if q.Label(0) == 0 {
			origRan.Store(true)
		}
	}}
	for _, kinds := range [][]rewrite.Kind{{rewrite.ILF}, {rewrite.ILF, rewrite.Orig}} {
		ids, wins, err := collect(context.Background(), nil, kinds, x, v, edge)
		if err != nil || !slices.Equal(ids, []int{1}) || !slices.Equal(wins, []int{1, 0}[:len(kinds)]) || len(kinds) == 1 && origRan.Load() {
			t.Fatalf("%v: ids %v, wins %v, err %v, Orig ran %v; want [1] from the table's filter, decided by ILF", kinds, ids, wins, err, origRan.Load())
		}
	}
}

// TestIndexRaceAllFail joins every instance's error when no one decides a
// candidate.
func TestIndexRaceAllFail(t *testing.T) {
	boom := errors.New("boom")
	failing := func(ctx context.Context, graphID int) (bool, error) { return false, boom }
	if _, _, err := indexRace(t, context.Background(), 0, 1, []int{0}, failing, failing); !errors.Is(err, boom) || !strings.Contains(err.Error(), "stub-Orig") || !strings.Contains(err.Error(), "stub-ILF") {
		t.Fatalf("err = %v, want boom under stub-Orig and stub-ILF", err)
	}
}

// TestIndexRaceCallerCancel: cancelling the caller's context fails the
// query with the context error instead of fabricating an answer.
func TestIndexRaceCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, _, err := indexRace(t, ctx, 0, 2, []int{0, 1}, blockingVerify, blockingVerify); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestIndexRaceEmitStop: the caller's emit returning false stops the
// stream and ends the query cleanly.
func TestIndexRaceEmitStop(t *testing.T) {
	x := stubTable(t, 3, 0, 1, 2)
	v := &stubVerifier{verify: []verifyFunc{instantVerify, blockingVerify}}
	var got []int
	_, err := StreamFTV(context.Background(), nil, x, v, skewed, origILF, edge, func(id int) bool {
		got = append(got, id)
		return false
	})
	if err != nil || !slices.Equal(got, []int{0}) {
		t.Errorf("emitted %v, %v; want [0]", got, err)
	}
}

// TestStreamRewritesQueryOncePerKind: the rewritten instances depend only on
// (query, frequencies, kind), so one pipeline run prepares them once and
// every candidate's race reuses them — a query of 40 candidates under
// {Orig, DND} hands Verify at most two distinct query graphs, not one fresh
// permutation per candidate × rewriting. The per-candidate race keeps
// working on its own.
func TestStreamRewritesQueryOncePerKind(t *testing.T) {
	const candidates = 40
	kinds := []rewrite.Kind{rewrite.Orig, rewrite.DND}
	x, _ := newGated(t, candidates)
	var (
		mu        sync.Mutex
		instances = map[*graph.Graph]int{}
	)
	v := &stubVerifier{verify: []verifyFunc{instantVerify}, onVerify: func(q *graph.Graph, _ int) {
		mu.Lock()
		instances[q]++
		mu.Unlock()
	}}
	q := edge
	if got, _, err := collect(context.Background(), nil, kinds, x, v, q); err != nil || len(got) != candidates {
		t.Fatalf("answered %d ids (%v), want %d", len(got), err, candidates)
	}
	mu.Lock() // a candidate race's losing rewriting may still be finishing
	// The caller's own query graph never reaches Verify: the instances are
	// the prepared rewritings.
	if len(instances) == 0 || len(instances) > len(kinds) || instances[q] != 0 {
		t.Errorf("%d distinct query graphs reached Verify (the caller's %d times), want at most %d, the caller's never", len(instances), instances[q], len(kinds))
	}
	mu.Unlock()
	contained, _, err := RaceInstances(context.Background(), nil, x, v, Instances(q, nil, kinds), 0)
	if err != nil || !contained {
		t.Fatalf("RaceInstances = %v, %v", contained, err)
	}
}
