package core

import (
	"context"
	"errors"
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

// stubVerifier is a controllable index.Verifier for race tests: a pluggable
// decision, and a counter recording whether it observed cancellation
// mid-verification. It decides the candidates of a small real table
// (stubTable), whose filter fixes the candidate list.
type stubVerifier struct {
	name      string
	verify    func(ctx context.Context, graphID int) (bool, error)
	onVerify  func(q *graph.Graph) // optional: observes the query instance each verification receives
	cancelled atomic.Int64         // verifications that ended on ctx cancellation
}

func (v *stubVerifier) Name() string { return v.name }

func (v *stubVerifier) Verify(ctx context.Context, _ *index.Path, q *graph.Graph, graphID int) (bool, error) {
	if v.onVerify != nil {
		v.onVerify(q)
	}
	ok, err := v.verify(ctx, graphID)
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

var orig = []rewrite.Kind{rewrite.Orig}

// collect runs StreamFTV over x with vs on pool, racing kinds, under the
// label frequencies of x's dataset, and gathers the streamed answer and the
// per-verifier wins.
func collect(ctx context.Context, pool *exec.Pool, kinds []rewrite.Kind, x *index.Sharded, vs []index.Verifier, q *graph.Graph) ([]int, []int, error) {
	var ids []int
	wins, err := StreamFTV(ctx, pool, x, vs, rewrite.FrequenciesOfDataset(x.Dataset()), kinds, q, func(id int) bool {
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
// scenario of the per-candidate verifier race: two verifiers of one table
// race on every candidate, the fast one decides each, and the slow loser is
// provably cancelled — every one of its verifications observes ctx.Done —
// with no goroutine outliving the race.
func TestIndexRaceAdoptsFirstEmitterAndCancelsLoser(t *testing.T) {
	x := stubTable(t, 3, 0, 1, 2)
	slow := &stubVerifier{name: "slow", verify: blockingVerify}
	fast := &stubVerifier{name: "fast", verify: instantVerify}
	pool := exec.New(4)
	t.Cleanup(pool.Close)
	vs := []index.Verifier{slow, fast}
	// Warm up so the pool's workers exist before the baseline.
	if _, _, err := collect(context.Background(), pool, orig, x, vs, edge); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the warm-up's losers never observed cancellation", func() bool { return slow.cancelled.Load() == 3 })
	slow.cancelled.Store(0)
	leakcheck.Check(t, 0)
	ids, wins, err := collect(context.Background(), pool, orig, x, vs, edge)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int{0, 1, 2}) || !slices.Equal(wins, []int{0, 3}) {
		t.Fatalf("ids %v, wins %v; want [0 1 2], every candidate decided by fast", ids, wins)
	}
	eventually(t, "the losing verifier never observed cancellation — losers are not being cancelled", func() bool {
		return slow.cancelled.Load() == 3
	})
}

// TestIndexRaceRepeatedNoLeak hammers the race to catch slow accretion.
func TestIndexRaceRepeatedNoLeak(t *testing.T) {
	x := stubTable(t, 2, 0, 1)
	fast := &stubVerifier{name: "fast", verify: instantVerify}
	slow := &stubVerifier{name: "slow", verify: blockingVerify}
	pool := exec.New(2)
	t.Cleanup(pool.Close)
	vs := []index.Verifier{fast, slow}
	// Warm-up so transient infrastructure exists before the baseline.
	if _, _, err := collect(context.Background(), pool, orig, x, vs, edge); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, 4)
	for i := 0; i < 200; i++ {
		_, wins, err := collect(context.Background(), pool, orig, x, vs, edge)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wins, []int{2, 0}) {
			t.Fatalf("iteration %d: wins = %v", i, wins)
		}
	}
}

// TestIndexRaceStragglerCannotStarveWinner: a candidate's race runs every
// verifier at once, whether or not the pool has a worker free, so a
// straggling verifier that holds the only worker cannot keep the fast one
// from deciding the candidate.
func TestIndexRaceStragglerCannotStarveWinner(t *testing.T) {
	x := stubTable(t, 3, 0, 1, 2)
	straggler := &stubVerifier{name: "straggler", verify: blockingVerify}
	winner := &stubVerifier{name: "winner", verify: instantVerify}
	pool := exec.New(1)
	t.Cleanup(pool.Close)
	type outcome struct {
		ids, wins []int
		err       error
	}
	done := make(chan outcome, 1)
	go func() {
		ids, wins, err := collect(context.Background(), pool, orig, x, []index.Verifier{straggler, winner}, edge)
		done <- outcome{ids, wins, err}
	}()
	select {
	case o := <-done:
		if o.err != nil || !slices.Equal(o.wins, []int{0, 3}) || !slices.Equal(o.ids, []int{0, 1, 2}) {
			t.Fatalf("ids %v, wins %v, err %v; want [0 1 2], all won by the winner", o.ids, o.wins, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the winner's verifications starved behind the straggler's")
	}
}

// indexRace races stub verifiers a, b, … — one per verify function, in that
// order — on every candidate of stubTable(n, ids...) under Orig, through a
// pool of the given size (0: the shared default), and returns the streamed
// IDs, the per-verifier wins and the error.
func indexRace(t *testing.T, ctx context.Context, workers, n int, ids []int, verify ...func(context.Context, int) (bool, error)) ([]int, []int, error) {
	var pool *exec.Pool
	if workers > 0 {
		pool = exec.New(workers)
		defer pool.Close()
	}
	var vs []index.Verifier
	for i, f := range verify {
		vs = append(vs, &stubVerifier{name: string(rune('a' + i)), verify: f})
	}
	return collect(ctx, pool, orig, stubTable(t, n, ids...), vs, edge)
}

// TestIndexRaceEmptyAnswerWins: a filter with no candidates ends the query
// at once, with an empty answer, whatever its verifiers would do.
func TestIndexRaceEmptyAnswerWins(t *testing.T) {
	ids, wins, err := indexRace(t, context.Background(), 2, 2, nil, blockingVerify, blockingVerify)
	if err != nil || len(ids) != 0 || !slices.Equal(wins, []int{0, 0}) {
		t.Fatalf("ids %v, wins %v, err %v; want none", ids, wins, err)
	}
}

// TestIndexRaceSingleIndexDegenerates: one verifier streams directly, every
// candidate decided by it.
func TestIndexRaceSingleIndexDegenerates(t *testing.T) {
	ids, wins, err := indexRace(t, context.Background(), 0, 3, []int{0, 2}, instantVerify)
	if err != nil || !slices.Equal(ids, []int{0, 2}) || !slices.Equal(wins, []int{2}) {
		t.Fatalf("ids %v, wins %v, err %v", ids, wins, err)
	}
}

// TestIndexRaceArmsOutOfPortfolioOrder: the one table filters, and wins
// count by position in the verifier list, whichever order the caller gives:
// a verifier that is not listed never runs.
func TestIndexRaceArmsOutOfPortfolioOrder(t *testing.T) {
	x := stubTable(t, 2, 1)
	a := &stubVerifier{name: "a", verify: blockingVerify}
	b := &stubVerifier{name: "b", verify: blockingVerify}
	c := &stubVerifier{name: "c", verify: instantVerify}
	ids, wins, err := collect(context.Background(), nil, orig, x, []index.Verifier{c, a}, edge)
	if err != nil || !slices.Equal(ids, []int{1}) || !slices.Equal(wins, []int{1, 0}) {
		t.Fatalf("ids %v, wins %v, err %v; want [1] from the table's filter, decided by c", ids, wins, err)
	}
	if b.cancelled.Load() != 0 {
		t.Error("a verifier that was not listed ran")
	}
}

// TestIndexRaceAllFail joins every verifier's error when no one decides a
// candidate.
func TestIndexRaceAllFail(t *testing.T) {
	boom := errors.New("boom")
	failing := func(ctx context.Context, graphID int) (bool, error) { return false, boom }
	if _, _, err := indexRace(t, context.Background(), 0, 1, []int{0}, failing, failing); !errors.Is(err, boom) || !strings.Contains(err.Error(), "a-Orig") || !strings.Contains(err.Error(), "b-Orig") {
		t.Fatalf("err = %v, want boom under a-Orig and b-Orig", err)
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
	vs := []index.Verifier{&stubVerifier{name: "fast", verify: instantVerify}, &stubVerifier{name: "slow", verify: blockingVerify}}
	var got []int
	_, err := StreamFTV(context.Background(), nil, x, vs, rewrite.FrequenciesOfDataset(x.Dataset()), orig, edge, func(id int) bool {
		got = append(got, id)
		return false
	})
	if err != nil || !slices.Equal(got, []int{0}) {
		t.Errorf("emitted %v, %v; want [0]", got, err)
	}
}

// TestStreamRewritesQueryOncePerKind: the rewritten instances depend only on
// (query, frequencies, kind), so one pipeline run prepares them once and
// every candidate's race reuses them — a three-verifier query of 40
// candidates under {Orig, DND} hands Verify at most two distinct query
// graphs, not one fresh permutation per candidate × rewriting × verifier.
// The per-candidate race keeps working on its own.
func TestStreamRewritesQueryOncePerKind(t *testing.T) {
	const candidates = 40
	kinds := []rewrite.Kind{rewrite.Orig, rewrite.DND}
	x, _ := newGated(t, candidates)
	var (
		mu        sync.Mutex
		instances = map[*graph.Graph]int{}
	)
	record := func(q *graph.Graph) {
		mu.Lock()
		instances[q]++
		mu.Unlock()
	}
	var vs []index.Verifier
	for _, name := range []string{"a", "b", "c"} {
		vs = append(vs, &stubVerifier{name: name, verify: instantVerify, onVerify: record})
	}
	q := edge
	if got, _, err := collect(context.Background(), nil, kinds, x, vs, q); err != nil || len(got) != candidates {
		t.Fatalf("answered %d ids (%v), want %d", len(got), err, candidates)
	}
	mu.Lock() // a candidate race's losing rewriting may still be finishing
	// The caller's own query graph never reaches Verify: the instances are
	// the prepared rewritings.
	if len(instances) == 0 || len(instances) > len(kinds) || instances[q] != 0 {
		t.Errorf("%d distinct query graphs reached Verify (the caller's %d times), want at most %d, the caller's never", len(instances), instances[q], len(kinds))
	}
	mu.Unlock()
	contained, _, err := RaceInstances(context.Background(), nil, x, vs[:1], Instances(q, nil, kinds), 0)
	if err != nil || !contained {
		t.Fatalf("RaceInstances = %v, %v", contained, err)
	}
}
