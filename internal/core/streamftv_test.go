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

// stubIndex is a controllable index.Index for race tests: a fixed candidate
// list, a pluggable verifier, and counters recording whether the index
// observed cancellation mid-verification.
type stubIndex struct {
	name      string
	ds        []*graph.Graph
	ids       []int
	verify    func(ctx context.Context, graphID int) (bool, error)
	onVerify  func(q *graph.Graph) // optional: observes the query instance each verification receives
	cancelled atomic.Int64         // verifications that ended on ctx cancellation
	stats     index.Stats
}

func newStubDataset(n int) []*graph.Graph {
	ds := make([]*graph.Graph, n)
	for i := range ds {
		ds[i] = graph.MustNew("g", []graph.Label{0, 1}, [][2]int{{0, 1}})
	}
	return ds
}

func (x *stubIndex) Name() string              { return x.name }
func (x *stubIndex) Dataset() []*graph.Graph   { return x.ds }
func (x *stubIndex) Stats() index.Stats        { return x.stats }
func (x *stubIndex) Close()                    {}
func (x *stubIndex) Filter(*graph.Graph) []int { return append([]int(nil), x.ids...) }

func (x *stubIndex) FilterStream(ctx context.Context, q *graph.Graph, emit func(int) bool) error {
	return lifted{x}.FilterStream(ctx, q, emit)
}

func (x *stubIndex) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if x.onVerify != nil {
		x.onVerify(q)
	}
	ok, err := x.verify(ctx, graphID)
	if err != nil && ctx.Err() != nil {
		x.cancelled.Add(1)
	}
	return ok, err
}

// blockingVerify blocks until the context dies, recording the cancellation.
func blockingVerify(ctx context.Context, graphID int) (bool, error) {
	<-ctx.Done()
	return false, ctx.Err()
}

func instantVerify(ctx context.Context, graphID int) (bool, error) { return true, nil }

var orig = []rewrite.Kind{rewrite.Orig}

// filterVerifier is the filter-then-verify half of index.Index: all a
// Filter-only test double implements.
type filterVerifier interface {
	Name() string
	Dataset() []*graph.Graph
	Filter(q *graph.Graph) []int
	Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error)
}

// lifted raises a filterVerifier to the index.Index contract the pipeline
// consumes: FilterStream replays Filter's list.
type lifted struct{ filterVerifier }

func (l lifted) Stats() index.Stats { return index.Stats{} }
func (l lifted) Close()             {}
func (l lifted) FilterStream(ctx context.Context, q *graph.Graph, emit func(int) bool) error {
	for _, id := range l.Filter(q) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !emit(id) {
			return nil
		}
	}
	return nil
}

// collect runs StreamFTV over xs on pool, racing kinds, under the label frequencies of
// their dataset, and gathers the streamed answer and the per-verifier wins.
func collect(ctx context.Context, pool *exec.Pool, kinds []rewrite.Kind, xs []index.Index, q *graph.Graph) ([]int, []int, error) {
	var ids []int
	wins, err := StreamFTV(ctx, pool, xs, rewrite.FrequenciesOfDataset(xs[0].Dataset()), kinds, q, func(id int) bool {
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
	ds := newStubDataset(3)
	slow := &stubIndex{name: "slow", ds: ds, ids: []int{0, 1, 2}, verify: blockingVerify}
	fast := &stubIndex{name: "fast", ds: ds, ids: []int{0, 1, 2}, verify: instantVerify}
	pool := exec.New(4)
	t.Cleanup(pool.Close)
	xs := []index.Index{slow, fast}
	// Warm up so the pool's workers exist before the baseline.
	if _, _, err := collect(context.Background(), pool, orig, xs, ds[0]); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the warm-up's losers never observed cancellation", func() bool { return slow.cancelled.Load() == 3 })
	slow.cancelled.Store(0)
	leakcheck.Check(t, 0)
	ids, wins, err := collect(context.Background(), pool, orig, xs, ds[0])
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
	ds := newStubDataset(2)
	fast := &stubIndex{name: "fast", ds: ds, ids: []int{0, 1}, verify: instantVerify}
	slow := &stubIndex{name: "slow", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	pool := exec.New(2)
	t.Cleanup(pool.Close)
	xs := []index.Index{fast, slow}
	// Warm-up so transient infrastructure exists before the baseline.
	if _, _, err := collect(context.Background(), pool, orig, xs, ds[0]); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, 4)
	for i := 0; i < 200; i++ {
		_, wins, err := collect(context.Background(), pool, orig, xs, ds[0])
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
	ds := newStubDataset(3)
	straggler := &stubIndex{name: "straggler", ds: ds, ids: []int{0, 1, 2}, verify: blockingVerify}
	winner := &stubIndex{name: "winner", ds: ds, ids: []int{0, 1, 2}, verify: instantVerify}
	pool := exec.New(1)
	t.Cleanup(pool.Close)
	type outcome struct {
		ids, wins []int
		err       error
	}
	done := make(chan outcome, 1)
	go func() {
		ids, wins, err := collect(context.Background(), pool, orig, []index.Index{straggler, winner}, ds[0])
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

// TestIndexRaceEmptyAnswerWins: a filter with no candidates ends the query
// at once, with an empty answer, whatever its verifiers would do.
func TestIndexRaceEmptyAnswerWins(t *testing.T) {
	ds := newStubDataset(2)
	empty := &stubIndex{name: "empty", ds: ds, ids: nil, verify: blockingVerify}
	slow := &stubIndex{name: "slow", ds: ds, ids: nil, verify: blockingVerify}
	pool := exec.New(2)
	defer pool.Close()
	ids, wins, err := collect(context.Background(), pool, orig, []index.Index{empty, slow}, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 || !slices.Equal(wins, []int{0, 0}) {
		t.Fatalf("ids %v, wins %v; want none", ids, wins)
	}
}

// TestIndexRaceSingleIndexDegenerates: one verifier streams directly, every
// candidate decided by it.
func TestIndexRaceSingleIndexDegenerates(t *testing.T) {
	ds := newStubDataset(3)
	only := &stubIndex{name: "only", ds: ds, ids: []int{0, 2}, verify: instantVerify}
	ids, wins, err := collect(context.Background(), nil, orig, []index.Index{only}, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int{0, 2}) || !slices.Equal(wins, []int{2}) {
		t.Fatalf("ids %v, wins %v", ids, wins)
	}
}

// TestIndexRaceArmsOutOfPortfolioOrder: the first verifier listed filters —
// the verifiers share one table — and wins count by position in the list,
// whichever order the caller gives: a verifier that is not listed never runs.
func TestIndexRaceArmsOutOfPortfolioOrder(t *testing.T) {
	ds := newStubDataset(2)
	a := &stubIndex{name: "a", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	b := &stubIndex{name: "b", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	c := &stubIndex{name: "c", ds: ds, ids: []int{1}, verify: instantVerify}
	ids, wins, err := collect(context.Background(), nil, orig, []index.Index{c, a}, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int{1}) || !slices.Equal(wins, []int{1, 0}) {
		t.Fatalf("ids %v, wins %v; want [1] from c's filter, decided by c", ids, wins)
	}
	if b.cancelled.Load() != 0 {
		t.Error("a verifier that was not listed ran")
	}
}

// TestIndexRaceAllFail joins every verifier's error when no one decides a
// candidate.
func TestIndexRaceAllFail(t *testing.T) {
	ds := newStubDataset(1)
	boom := errors.New("boom")
	failing := func(ctx context.Context, graphID int) (bool, error) { return false, boom }
	a := &stubIndex{name: "a", ds: ds, ids: []int{0}, verify: failing}
	b := &stubIndex{name: "b", ds: ds, ids: []int{0}, verify: failing}
	_, _, err := collect(context.Background(), nil, orig, []index.Index{a, b}, ds[0])
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	for _, name := range []string{"a-Orig", "b-Orig"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("err = %v, want it to name %s", err, name)
		}
	}
}

// TestIndexRaceCallerCancel: cancelling the caller's context fails the
// query with the context error instead of fabricating an answer.
func TestIndexRaceCallerCancel(t *testing.T) {
	ds := newStubDataset(2)
	s1 := &stubIndex{name: "s1", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	s2 := &stubIndex{name: "s2", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := collect(ctx, nil, orig, []index.Index{s1, s2}, ds[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestIndexRaceEmitStop: the caller's emit returning false stops the
// stream and ends the query cleanly.
func TestIndexRaceEmitStop(t *testing.T) {
	ds := newStubDataset(3)
	fast := &stubIndex{name: "fast", ds: ds, ids: []int{0, 1, 2}, verify: instantVerify}
	slow := &stubIndex{name: "slow", ds: ds, ids: []int{0, 1, 2}, verify: blockingVerify}
	var got []int
	_, err := StreamFTV(context.Background(), nil, []index.Index{fast, slow}, rewrite.FrequenciesOfDataset(ds), orig, ds[0], func(id int) bool {
		got = append(got, id)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("emitted %v, want [0]", got)
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
	ds := newStubDataset(candidates)
	ids := make([]int, candidates)
	for i := range ids {
		ids[i] = i
	}
	var (
		mu        sync.Mutex
		instances = map[*graph.Graph]int{}
	)
	record := func(q *graph.Graph) {
		mu.Lock()
		instances[q]++
		mu.Unlock()
	}
	var xs []index.Index
	for _, name := range []string{"a", "b", "c"} {
		xs = append(xs, &stubIndex{name: name, ds: ds, ids: ids, verify: instantVerify, onVerify: record})
	}
	q := graph.MustNew("q", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	var got []int
	_, err := StreamFTV(context.Background(), nil, xs, rewrite.FrequenciesOfDataset(ds), kinds, q, func(id int) bool {
		got = append(got, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != candidates {
		t.Fatalf("answered %d ids, want %d", len(got), candidates)
	}
	mu.Lock() // a candidate race's losing rewriting may still be finishing
	if len(instances) == 0 || len(instances) > len(kinds) {
		t.Errorf("%d distinct query graphs reached Verify, want at most %d", len(instances), len(kinds))
	}
	if instances[q] != 0 {
		t.Error("the caller's own query graph reached Verify: instances must be the prepared rewritings")
	}
	mu.Unlock()
	contained, _, err := RaceInstances(context.Background(), nil, xs[:1], Instances(q, nil, kinds), 0)
	if err != nil || !contained {
		t.Fatalf("RaceInstances = %v, %v", contained, err)
	}
}
