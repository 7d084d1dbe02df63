package index

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
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

func smallDataset() []*graph.Graph {
	return []*graph.Graph{
		graph.MustNew("g0", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 0}}),
		graph.MustNew("g1", []graph.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		graph.MustNew("g2", []graph.Label{1, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}}),
	}
}

func TestRegistryHasAllKinds(t *testing.T) {
	if kinds := Kinds(); !slices.Equal(kinds, []string{KindPath, KindGGSX, KindGrapes}) {
		t.Fatalf("Kinds() = %v, want the three names, sorted", kinds)
	}
	if _, err := Build(context.Background(), "btree", smallDataset(), 1, Options{}); err == nil {
		t.Error("Build of unknown kind should fail")
	}
}

// flatKinds are the kinds that are the flat table alone, with the names they
// answer to.
var flatKinds = []struct{ kind, name string }{{KindPath, "FTV"}, {KindGGSX, "GGSX"}}

// buildFlat builds the one-shard index of one of the flat kinds.
func buildFlat(t *testing.T, kind string, ds []*graph.Graph, opts Options) *Sharded {
	t.Helper()
	x, err := Build(context.Background(), kind, ds, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestPathIndexFilterAndVerify holds each flat kind to its name and defaults
// ("name"), presence and frequency pruning ("filter"), and VF2 verification
// over the whole graph ("verify").
func TestPathIndexFilterAndVerify(t *testing.T) {
	for _, fk := range flatKinds {
		t.Run(fk.kind, func(t *testing.T) {
			x := buildFlat(t, fk.kind, smallDataset(), Options{})
			t.Run("name", func(t *testing.T) { checkFlatName(t, x, fk.kind, fk.name) })
			t.Run("filter", func(t *testing.T) { checkFlatFilter(t, x) })
			t.Run("verify", func(t *testing.T) { checkFlatVerify(t, x) })
		})
	}
}

func checkFlatName(t *testing.T, x *Sharded, kind, name string) {
	if x.Name() != name {
		t.Errorf("Name = %q, want %q", x.Name(), name)
	}
	if len(x.Dataset()) != 3 || x.tables[0].MaxPathLen() != ftv.DefaultMaxPathLen {
		t.Errorf("%d graphs at path length %d, want 3 at %d", len(x.Dataset()), x.tables[0].MaxPathLen(), ftv.DefaultMaxPathLen)
	}
	if _, err := x.tables[0].WithGraph(context.Background(), smallDataset()[0]); err != nil {
		t.Errorf("a flat kind's table refused an insert: %v", err)
	}
	st := x.Stats()
	if st.Kind != kind || st.Name != name || st.Graphs != 3 || st.Features == 0 || st.Postings == 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func checkFlatFilter(t *testing.T, x *Sharded) {
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	if got := x.Filter(q); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("Filter = %v, want [0 1]", got)
	}
	// Frequency pruning: two 0-leaves on a 1-center needs (0,1) twice.
	q2 := graph.MustNew("q2", []graph.Label{1, 0, 0}, [][2]int{{0, 1}, {0, 2}})
	if got2 := x.Filter(q2); !slices.Equal(got2, []int{2}) {
		t.Errorf("Filter = %v, want [2]", got2)
	}
	// Edgeless query: all graphs.
	q3 := graph.MustNew("q3", []graph.Label{0}, nil)
	if got3 := x.Filter(q3); len(got3) != 3 {
		t.Errorf("Filter = %v, want all", got3)
	}
	// Unknown label: no candidates.
	q4 := graph.MustNew("q4", []graph.Label{9, 9}, [][2]int{{0, 1}})
	if got4 := x.Filter(q4); len(got4) != 0 {
		t.Errorf("Filter = %v, want empty", got4)
	}
}

func checkFlatVerify(t *testing.T, x *Sharded) {
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	ok, err := x.Verify(context.Background(), q, 0)
	if err != nil || !ok {
		t.Errorf("Verify(g0) = %v, %v", ok, err)
	}
	ok, err = x.Verify(context.Background(), q, 2)
	if err != nil || ok {
		t.Errorf("Verify(g2) = %v, %v; q not contained", ok, err)
	}
	if _, err := x.Verify(context.Background(), q, 99); err == nil {
		t.Error("Verify out of range should fail")
	}
}

// TestLookupCounts pins each flat kind's postings for one sequence, and that a
// sequence is looked up under its oriented spelling only.
func TestLookupCounts(t *testing.T) {
	for _, fk := range flatKinds {
		t.Run(fk.kind, func(t *testing.T) {
			x := buildFlat(t, fk.kind, smallDataset(), Options{}).tables[0]
			// g0: edge 0(0)-1(1) one occurrence of (0,1); g1 same; g2: center
			// label 1 is vertex 0, leaves label 0: path (0,1) occurs 3×.
			if got, want := unpack(x.lookup([]graph.Label{0, 1})), []posting{{0, 1}, {1, 1}, {2, 3}}; !slices.Equal(got, want) {
				t.Errorf("counts(0,1) = %v, want %v", got, want)
			}
			if x.lookup([]graph.Label{42}).Len() != 0 {
				t.Error("unknown label should have no postings")
			}
			if x.lookup([]graph.Label{1, 0}).Len() != 0 {
				t.Error("(1,0) is (0,1) read backwards and should have no postings of its own")
			}
			if list, refs := x.Located([]graph.Label{0, 1}); list.Len() != 3 || refs != nil {
				t.Errorf("Located(0,1) = %d postings and references %v; want 3 and none for a kind without locations", list.Len(), refs)
			}
		})
	}
}

// streamIDs collects what x.FilterStream emits for q, declining after stop
// IDs when stop > 0.
func streamIDs(ctx context.Context, x *Sharded, q *graph.Graph, stop int) ([]int, error) {
	var got []int
	err := x.FilterStream(ctx, q, func(id int) bool {
		got = append(got, id)
		return stop <= 0 || len(got) < stop
	})
	return got, err
}

// TestFilterStreamMatchesFilter: the index's merge over its one shard emits
// what the table's own scan does.
func TestFilterStreamMatchesFilter(t *testing.T) {
	x := buildFlat(t, KindPath, smallDataset(), Options{})
	queries := []*graph.Graph{
		graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}}),
		graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}}),
		graph.MustNew("q", []graph.Label{0}, nil),
	}
	for qi, q := range queries {
		var want []int
		if err := x.tables[0].FilterFeatures(context.Background(), ftv.QueryFeatures(q, ftv.DefaultMaxPathLen), func(id int) bool {
			want = append(want, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got := x.Filter(q); !slices.Equal(got, want) {
			t.Fatalf("query %d: Filter %v vs the table's scan %v", qi, got, want)
		}
		if got, err := streamIDs(context.Background(), x, q, 0); err != nil || !slices.Equal(got, want) {
			t.Fatalf("query %d: stream %v, %v vs filter %v", qi, got, err, want)
		}
	}
}

func TestFilterStreamEarlyStopAndCancel(t *testing.T) {
	x := buildFlat(t, KindPath, smallDataset(), Options{})
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	if got, err := streamIDs(context.Background(), x, q, 1); err != nil || len(got) != 1 {
		t.Errorf("early stop emitted %v, %v; want one ID", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := streamIDs(ctx, x, q, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled FilterStream = %v, want context.Canceled", err)
	}
}

// upTo is a StreamVerified filter that emits the IDs 0..n-1 in order, until
// emit declines; each emission first runs before, when it is set.
func upTo(n int, before func(id int)) func(context.Context, func(int) bool) error {
	return func(_ context.Context, emit func(int) bool) error {
		for id := 0; id < n; id++ {
			if before != nil {
				before(id)
			}
			if !emit(id) {
				return nil
			}
		}
		return nil
	}
}

// verified runs StreamVerified on a new pool of the given size and collects
// what it emits, declining after stop IDs when stop > 0.
func verified(ctx context.Context, workers int, filter func(context.Context, func(int) bool) error, stop int, check func(context.Context, int) (bool, error)) ([]int, error) {
	pool := exec.New(workers)
	defer pool.Close()
	var got []int
	err := StreamVerified(ctx, pool, filter, func(id int) bool {
		got = append(got, id)
		return stop <= 0 || len(got) < stop
	}, check)
	return got, err
}

// TestStreamVerifiedOrderingAndOverlap drives StreamVerified with a filter
// that emits slowly and asserts verified IDs still arrive in filter order,
// with verification having started before the filter finished.
func TestStreamVerifiedOrderingAndOverlap(t *testing.T) {
	var (
		mu            sync.Mutex
		verifyStarted bool
		overlapped    bool
	)
	filter := upTo(8, func(int) {
		mu.Lock()
		overlapped = overlapped || verifyStarted // a check ran while we were still scanning
		mu.Unlock()
	})
	check := func(ctx context.Context, id int) (bool, error) {
		mu.Lock()
		verifyStarted = true
		mu.Unlock()
		return id%2 == 0, nil
	}
	got, err := verified(context.Background(), 2, filter, 0, check)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("emitted %v, want %v (order must match the filter)", got, want)
	}
	if !overlapped {
		t.Error("verification never overlapped filtering — pipeline is not streaming-first")
	}
}

func TestStreamVerifiedEmitStop(t *testing.T) {
	got, err := verified(context.Background(), 2, upTo(100, nil), 3, func(context.Context, int) (bool, error) { return true, nil })
	if err != nil || len(got) != 3 {
		t.Errorf("emit-stop stream emitted %d, %v; want 3 and nil", len(got), err)
	}
}

func TestStreamVerifiedErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := verified(context.Background(), 2, upTo(50, nil), 0, func(ctx context.Context, id int) (bool, error) {
		if id == 5 {
			return false, boom
		}
		return false, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestStreamVerifiedTable pins the ordered fan-out's contract over a plain
// candidate list at several pool sizes: verified IDs arrive in filter order
// however the checks complete, the first check error cancels the rest and is
// returned, a context cancelled before the call is reported rather than read
// as an empty answer, and the degenerate 0- and 1-candidate lists work.
func TestStreamVerifiedTable(t *testing.T) {
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		ctx     context.Context
		filter  func(context.Context, func(int) bool) error
		errOn   int // candidate whose check fails, -1 for none
		want    []int
		wantErr error
	}{
		{name: "out-of-order completion", ctx: context.Background(), filter: upTo(40, nil), errOn: -1,
			want: []int{0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24, 26, 27, 29, 30, 32, 33, 35, 36, 38, 39}},
		{name: "first error cancels the rest", ctx: context.Background(), filter: upTo(20, nil), errOn: 7, wantErr: boom},
		{name: "pre-cancelled context", ctx: cancelled, filter: upTo(20, nil), errOn: -1, wantErr: context.Canceled},
		{name: "no candidates", ctx: context.Background(), filter: upTo(0, nil), errOn: -1},
		{name: "one candidate", ctx: context.Background(), errOn: -1, want: []int{5},
			filter: func(_ context.Context, emit func(int) bool) error { emit(5); return nil }},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := verified(tc.ctx, workers, tc.filter, 0, func(ctx context.Context, id int) (bool, error) {
				if err := ctx.Err(); err != nil {
					return false, err
				}
				if id == tc.errOn {
					return false, boom
				}
				if id%4 == 0 {
					// Early candidates settle late, so later ones are
					// decided first and must wait their turn.
					time.Sleep(200 * time.Microsecond)
				}
				return id%3 != 1, nil
			})
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s, %d workers: err = %v, want %v", tc.name, workers, err, tc.wantErr)
			}
			if tc.wantErr == nil && !slices.Equal(got, tc.want) {
				t.Errorf("%s, %d workers: emitted %v, want %v", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestStreamVerifiedSlowEmitDoesNotStallVerification: emit runs outside the
// pipeline's state lock, so a consumer stuck on the first ID (a server
// flushing to a slow client) holds up only the ordered stream — the filter
// keeps scanning and every other candidate still gets verified. A panicking
// emit surfaces as the stream's error instead of wedging the lock.
func TestStreamVerifiedSlowEmitDoesNotStallVerification(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	const n = 20
	filter := upTo(n, nil)
	var checked atomic.Int64
	allChecked := make(chan struct{})
	check := func(ctx context.Context, id int) (bool, error) {
		if checked.Add(1) == n {
			close(allChecked)
		}
		return true, nil
	}
	var got []int
	err := StreamVerified(context.Background(), pool, filter, func(id int) bool {
		if id == 0 {
			select {
			case <-allChecked:
			case <-time.After(5 * time.Second):
				t.Error("verification stalled behind a slow emit")
			}
		}
		got = append(got, id)
		return true
	}, check)
	if err != nil || len(got) != n || !slices.IsSorted(got) {
		t.Fatalf("stream = %v, %v; want %d ascending ids", got, err, n)
	}
	err = StreamVerified(context.Background(), pool, filter, func(int) bool { panic("consumer bug") }, check)
	if err == nil || !strings.Contains(err.Error(), "consumer bug") {
		t.Fatalf("panicking emit = %v, want its panic reported as the stream's error", err)
	}
}

// TestStreamVerifiedCancelNotSilentlyEmpty proves a cancelled pipeline
// reports the cancellation instead of a complete-looking empty answer.
func TestStreamVerifiedCancelNotSilentlyEmpty(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	filter := upTo(100, func(id int) {
		if id == 3 {
			cancel() // caller goes away mid-scan
		}
	})
	_, err := verified(ctx, 2, filter, 0, func(gctx context.Context, id int) (bool, error) {
		if err := gctx.Err(); err != nil {
			return false, err
		}
		return false, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline = %v, want context.Canceled", err)
	}
}

func TestAnswerMatchesSequentialOracle(t *testing.T) {
	x := buildFlat(t, KindPath, smallDataset(), Options{})
	pool := exec.New(2)
	defer pool.Close()
	queries := []*graph.Graph{
		graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}}),
		graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}}),
		graph.MustNew("q", []graph.Label{9, 9}, [][2]int{{0, 1}}),
	}
	for qi, q := range queries {
		want, err := SequentialAnswer(context.Background(), x, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Answer(context.Background(), x, q, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: Answer %v vs SequentialAnswer %v", qi, got, want)
		}
	}
}

// evenVerifier is a Verifier double that accepts the even graph IDs, so
// SequentialAnswer's result shows it decided with the index's verifier.
type evenVerifier struct{}

func (evenVerifier) Name() string { return "even" }
func (evenVerifier) Verify(ctx context.Context, t *Path, q *graph.Graph, id int) (bool, error) {
	return id%2 == 0, nil
}

func TestSequentialAnswer(t *testing.T) {
	ds := make([]*graph.Graph, 4)
	for i := range ds {
		ds[i] = graph.MustNew("g", []graph.Label{0, 1}, [][2]int{{0, 1}})
	}
	tables, err := BuildTables(context.Background(), KindPath, ds, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := NewShardedFrom(ds, nil, tables, evenVerifier{})
	got, err := SequentialAnswer(context.Background(), x, ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int{0, 2}) {
		t.Errorf("SequentialAnswer = %v, want [0 2]", got)
	}
}
