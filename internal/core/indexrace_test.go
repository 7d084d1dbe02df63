package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
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

// lifted raises a Filter-only ftv.Index test double to the index.Index
// contract the pipeline consumes: FilterStream replays Filter's list.
type lifted struct{ ftv.Index }

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

// collect runs r.Stream over the given arms (none: the whole portfolio) of
// xs, under the label frequencies of their dataset, and gathers the streamed
// answer.
func collect(ctx context.Context, r *IndexRacer, xs []index.Index, q *graph.Graph, arms ...int) ([]int, IndexRaceResult, error) {
	var ids []int
	res, err := r.Stream(ctx, xs, rewrite.FrequenciesOfDataset(xs[0].Dataset()), q, arms, func(id int) bool {
		ids = append(ids, id)
		return true
	})
	return ids, res, err
}

// TestIndexRaceAdoptsFirstEmitterAndCancelsLoser is the core acceptance
// scenario: two indexes race, the fast one emits a verified candidate and
// wins, and the slow loser is provably cancelled — its verification
// observed ctx.Done, its attempt is marked Cancelled, and no goroutines
// outlive the race.
func TestIndexRaceAdoptsFirstEmitterAndCancelsLoser(t *testing.T) {
	ds := newStubDataset(3)
	// The fast index's first verification waits until the slow index has a
	// verification in flight, so the loser is provably mid-work when the
	// winner's emission cancels it (otherwise scheduling could finish the
	// whole race before the loser started anything).
	slowStarted := make(chan struct{}, 16)
	slow := &stubIndex{name: "slow", ds: ds, ids: []int{0, 1, 2}}
	slow.verify = func(ctx context.Context, graphID int) (bool, error) {
		select {
		case slowStarted <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return false, ctx.Err()
	}
	fast := &stubIndex{name: "fast", ds: ds, ids: []int{0, 1, 2}}
	fast.verify = func(ctx context.Context, graphID int) (bool, error) {
		if graphID == 0 {
			select {
			case <-slowStarted:
			case <-ctx.Done():
				return false, ctx.Err()
			}
		}
		return true, nil
	}
	pool := exec.New(4)
	t.Cleanup(pool.Close)
	xs := []index.Index{slow, fast}
	r := &IndexRacer{Rewritings: orig}
	r.Pool = pool

	// Warm up so the pool's workers exist before the baseline, then drain
	// leftover start tokens so the measured race re-observes the slow index
	// actually starting.
	if _, _, err := collect(context.Background(), r, xs, ds[0]); err != nil {
		t.Fatal(err)
	}
	for drained := false; !drained; {
		select {
		case <-slowStarted:
		default:
			drained = true
		}
	}
	slow.cancelled.Store(0)
	leakcheck.Check(t, 2) // the race drains its losers before returning
	ids, res, err := collect(context.Background(), r, xs, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "fast" || res.WinnerIndex != 1 {
		t.Fatalf("winner = %q (%d), want fast", res.Winner, res.WinnerIndex)
	}
	if len(ids) != 3 {
		t.Errorf("GraphIDs = %v, want [0 1 2]", ids)
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("Attempts = %+v, want 2", res.Attempts)
	}
	if !res.Attempts[1].Winner || res.Attempts[1].Emitted != 3 {
		t.Errorf("fast attempt = %+v, want winner with 3 emissions", res.Attempts[1])
	}
	if !res.Attempts[0].Cancelled || res.Attempts[0].Winner {
		t.Errorf("slow attempt = %+v, want cancelled loser", res.Attempts[0])
	}
	if slow.cancelled.Load() == 0 {
		t.Error("losing index never observed cancellation — losers are not being cancelled")
	}
}

// TestIndexRaceRepeatedNoLeak hammers the race to catch slow accretion.
func TestIndexRaceRepeatedNoLeak(t *testing.T) {
	ds := newStubDataset(2)
	fast := &stubIndex{name: "fast", ds: ds, ids: []int{0, 1}, verify: instantVerify}
	slow := &stubIndex{name: "slow", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	pool := exec.New(2)
	t.Cleanup(pool.Close)
	xs := []index.Index{fast, slow}
	r := &IndexRacer{Rewritings: orig}
	r.Pool = pool
	// Warm-up so transient infrastructure exists before the baseline.
	if _, _, err := collect(context.Background(), r, xs, ds[0]); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, 4)
	for i := 0; i < 200; i++ {
		_, res, err := collect(context.Background(), r, xs, ds[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner != "fast" {
			t.Fatalf("iteration %d: winner = %q", i, res.Winner)
		}
	}
}

// gatedFilter is a stub whose filter waits for gate before it scans.
type gatedFilter struct {
	*stubIndex
	gate <-chan struct{}
}

func (x gatedFilter) FilterStream(ctx context.Context, q *graph.Graph, emit func(int) bool) error {
	select {
	case <-x.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return x.stubIndex.FilterStream(ctx, q, emit)
}

// TestIndexRaceStragglerCannotStarveWinner: raced arms share the racer's
// pool, so a straggler may hold its only worker. The winner's filter starts
// only once the straggler's first verification has, and its verifications
// must still run — on its own goroutine — rather than wait for a worker the
// straggler frees only when it loses.
func TestIndexRaceStragglerCannotStarveWinner(t *testing.T) {
	ds := newStubDataset(3)
	started := make(chan struct{})
	var once sync.Once
	straggler := &stubIndex{name: "straggler", ds: ds, ids: []int{0, 1, 2}}
	straggler.verify = func(ctx context.Context, graphID int) (bool, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return false, ctx.Err()
	}
	winner := gatedFilter{&stubIndex{name: "winner", ds: ds, ids: []int{0, 1, 2}, verify: instantVerify}, started}
	pool := exec.New(1)
	t.Cleanup(pool.Close)
	r := &IndexRacer{Rewritings: orig, Pool: pool}
	type outcome struct {
		ids []int
		res IndexRaceResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		ids, res, err := collect(context.Background(), r, []index.Index{straggler, winner}, ds[0])
		done <- outcome{ids, res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil || o.res.Winner != "winner" || !slices.Equal(o.ids, []int{0, 1, 2}) {
			t.Fatalf("ids %v, winner %q, err %v; want [0 1 2] from winner", o.ids, o.res.Winner, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the winner's verifications starved behind the straggler's")
	}
}

// TestIndexRaceEmptyAnswerWins: an index that completes with no candidates
// before anyone emits decides the race — the answer is empty.
func TestIndexRaceEmptyAnswerWins(t *testing.T) {
	ds := newStubDataset(2)
	empty := &stubIndex{name: "empty", ds: ds, ids: nil, verify: instantVerify}
	slow := &stubIndex{name: "slow", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	pool := exec.New(2)
	defer pool.Close()
	xs := []index.Index{slow, empty}
	r := &IndexRacer{Rewritings: orig}
	r.Pool = pool
	ids, res, err := collect(context.Background(), r, xs, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "empty" {
		t.Fatalf("winner = %q, want empty", res.Winner)
	}
	if len(ids) != 0 {
		t.Errorf("GraphIDs = %v, want none", ids)
	}
}

// TestIndexRaceSingleIndexDegenerates: a one-index portfolio streams
// directly, still reporting a winner attempt.
func TestIndexRaceSingleIndexDegenerates(t *testing.T) {
	ds := newStubDataset(3)
	only := &stubIndex{name: "only", ds: ds, ids: []int{0, 2}, verify: instantVerify}
	xs := []index.Index{only}
	r := &IndexRacer{Rewritings: orig}
	ids, res, err := collect(context.Background(), r, xs, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "only" || len(ids) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Attempts) != 1 || !res.Attempts[0].Winner || res.Attempts[0].Emitted != 2 {
		t.Fatalf("Attempts = %+v", res.Attempts)
	}
}

// TestIndexRaceArmsOutOfPortfolioOrder: Attempts follows the arms of the
// call while WinnerIndex is a portfolio position, so with arms {2, 0} the
// winner's report is not Attempts[WinnerIndex]; the name, the Winner flag and
// WinnerElapsed must all describe the same arm.
func TestIndexRaceArmsOutOfPortfolioOrder(t *testing.T) {
	ds := newStubDataset(2)
	a := &stubIndex{name: "a", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	b := &stubIndex{name: "b", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	c := &stubIndex{name: "c", ds: ds, ids: []int{0, 1}, verify: instantVerify}
	xs := []index.Index{a, b, c}
	r := &IndexRacer{Rewritings: orig}
	ids, res, err := collect(context.Background(), r, xs, ds[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || res.Winner != "c" || res.WinnerIndex != 2 {
		t.Fatalf("ids %v, winner %q at %d, want [0 1] from c at portfolio position 2", ids, res.Winner, res.WinnerIndex)
	}
	if len(res.Attempts) != 2 || res.Attempts[0].Name != "c" || res.Attempts[1].Name != "a" {
		t.Fatalf("Attempts = %+v, want c then a (the order of the arms)", res.Attempts)
	}
	won, lost := res.Attempts[0], res.Attempts[1]
	if !won.Winner || won.Emitted != 2 || lost.Winner || !lost.Cancelled {
		t.Errorf("Attempts = %+v, want c the winner with 2 emissions and a cancelled", res.Attempts)
	}
	if res.WinnerElapsed != won.Elapsed || won.Elapsed <= 0 || won.Elapsed > res.Elapsed {
		t.Errorf("WinnerElapsed %v, winner's attempt %v, race %v", res.WinnerElapsed, won.Elapsed, res.Elapsed)
	}
	if b.cancelled.Load() != 0 {
		t.Error("an arm that was not listed ran")
	}
}

// TestIndexRaceAllFail joins every attempt's error when no one produces an
// answer.
func TestIndexRaceAllFail(t *testing.T) {
	ds := newStubDataset(1)
	boom := errors.New("boom")
	failing := func(ctx context.Context, graphID int) (bool, error) { return false, boom }
	a := &stubIndex{name: "a", ds: ds, ids: []int{0}, verify: failing}
	b := &stubIndex{name: "b", ds: ds, ids: []int{0}, verify: failing}
	xs := []index.Index{a, b}
	r := &IndexRacer{Rewritings: orig}
	_, _, err := collect(context.Background(), r, xs, ds[0])
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestIndexRaceCallerCancel: cancelling the caller's context fails the race
// with the context error instead of fabricating an answer.
func TestIndexRaceCallerCancel(t *testing.T) {
	ds := newStubDataset(2)
	s1 := &stubIndex{name: "s1", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	s2 := &stubIndex{name: "s2", ds: ds, ids: []int{0, 1}, verify: blockingVerify}
	xs := []index.Index{s1, s2}
	r := &IndexRacer{Rewritings: orig}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := collect(ctx, r, xs, ds[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestIndexRaceEmitStop: the caller's emit returning false stops the
// adopted winner and ends the race cleanly.
func TestIndexRaceEmitStop(t *testing.T) {
	ds := newStubDataset(3)
	fast := &stubIndex{name: "fast", ds: ds, ids: []int{0, 1, 2}, verify: instantVerify}
	slow := &stubIndex{name: "slow", ds: ds, ids: []int{0, 1, 2}, verify: blockingVerify}
	xs := []index.Index{fast, slow}
	r := &IndexRacer{Rewritings: orig}
	var got []int
	res, err := r.Stream(context.Background(), xs, rewrite.FrequenciesOfDataset(ds), ds[0], nil, func(id int) bool {
		got = append(got, id)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("emitted %v, want [0]", got)
	}
	if res.Winner != "fast" {
		t.Errorf("winner = %q", res.Winner)
	}
}

// TestStreamRewritesQueryOncePerKind: the rewritten instances depend only on
// (query, frequencies, kind), so one pipeline run prepares them once and
// every candidate's race in every arm reuses them — a three-index race of a
// 40-candidate query under {Orig, DND} hands Verify at most two distinct
// query graphs, not one fresh permutation per candidate × rewriting × index.
// The single-candidate FTVRacer.Verify keeps working on its own.
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
	r := &IndexRacer{Rewritings: kinds}
	q := graph.MustNew("q", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	got, _, err := collect(context.Background(), r, xs, q)
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
	f := NewFTVRacer(xs[0], kinds)
	res, err := f.Verify(context.Background(), q, 0)
	if err != nil || !res.Contained {
		t.Fatalf("FTVRacer.Verify = %+v, %v", res, err)
	}
}
