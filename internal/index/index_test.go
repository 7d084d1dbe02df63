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
	kinds := Kinds()
	if len(kinds) == 0 || kinds[0] != KindPath {
		t.Fatalf("Kinds() = %v, want at least %q", kinds, KindPath)
	}
	if _, err := Build(context.Background(), "btree", smallDataset(), Options{}); err == nil {
		t.Error("Build of unknown kind should fail")
	}
}

func TestPathIndexFilterAndVerify(t *testing.T) {
	x, err := BuildPath(context.Background(), smallDataset(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if x.Name() != "FTV" {
		t.Errorf("Name = %q", x.Name())
	}
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	got := x.Filter(q)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Filter = %v, want [0 1]", got)
	}
	// Frequency pruning: two 0-leaves on a 1-center needs (0,1) twice.
	q2 := graph.MustNew("q2", []graph.Label{1, 0, 0}, [][2]int{{0, 1}, {0, 2}})
	if got2 := x.Filter(q2); len(got2) != 1 || got2[0] != 2 {
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
	st := x.Stats()
	if st.Kind != KindPath || st.Graphs != 3 || st.Features == 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestFilterStreamMatchesFilter(t *testing.T) {
	x, err := BuildPath(context.Background(), smallDataset(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []*graph.Graph{
		graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}}),
		graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}}),
		graph.MustNew("q", []graph.Label{0}, nil),
	}
	for qi, q := range queries {
		want := x.Filter(q)
		var got []int
		if err := x.FilterStream(context.Background(), q, func(id int) bool {
			got = append(got, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: stream %v vs filter %v", qi, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: stream %v vs filter %v", qi, got, want)
			}
		}
	}
}

func TestFilterStreamEarlyStopAndCancel(t *testing.T) {
	x, err := BuildPath(context.Background(), smallDataset(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	var got []int
	if err := x.FilterStream(context.Background(), q, func(id int) bool {
		got = append(got, id)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("early stop emitted %v, want one ID", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := x.FilterStream(ctx, q, func(int) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled FilterStream = %v, want context.Canceled", err)
	}
}

// TestStreamVerifiedOrderingAndOverlap drives StreamVerified with a filter
// that emits slowly and asserts verified IDs still arrive in filter order,
// with verification having started before the filter finished.
func TestStreamVerifiedOrderingAndOverlap(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	var (
		mu            sync.Mutex
		verifyStarted bool
		overlapped    bool
	)
	filter := func(ctx context.Context, emit func(int) bool) error {
		for id := 0; id < 8; id++ {
			mu.Lock()
			if verifyStarted {
				overlapped = true // a check ran while we were still scanning
			}
			mu.Unlock()
			if !emit(id) {
				return nil
			}
		}
		return nil
	}
	check := func(ctx context.Context, id int) (bool, error) {
		mu.Lock()
		verifyStarted = true
		mu.Unlock()
		return id%2 == 0, nil
	}
	var got []int
	err := StreamVerified(context.Background(), pool, filter, func(id int) bool {
		got = append(got, id)
		return true
	}, check)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emitted %v, want %v (order must match the filter)", got, want)
		}
	}
	if !overlapped {
		t.Error("verification never overlapped filtering — pipeline is not streaming-first")
	}
}

func TestStreamVerifiedEmitStop(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	filter := func(ctx context.Context, emit func(int) bool) error {
		for id := 0; id < 100; id++ {
			if !emit(id) {
				return nil
			}
		}
		return nil
	}
	check := func(ctx context.Context, id int) (bool, error) { return true, nil }
	count := 0
	err := StreamVerified(context.Background(), pool, filter, func(id int) bool {
		count++
		return count < 3
	}, check)
	if err != nil {
		t.Fatalf("emit-stop stream = %v, want nil", err)
	}
	if count != 3 {
		t.Errorf("emitted %d, want 3", count)
	}
}

func TestStreamVerifiedErrorPropagates(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	boom := errors.New("boom")
	filter := func(ctx context.Context, emit func(int) bool) error {
		for id := 0; id < 50; id++ {
			if !emit(id) {
				return nil
			}
		}
		return nil
	}
	check := func(ctx context.Context, id int) (bool, error) {
		if id == 5 {
			return false, boom
		}
		return false, nil
	}
	err := StreamVerified(context.Background(), pool, filter, func(int) bool { return true }, check)
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
	upTo := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	cases := []struct {
		name    string
		ctx     context.Context
		ids     []int
		errOn   int // candidate whose check fails, -1 for none
		want    []int
		wantErr error
	}{
		{name: "out-of-order completion", ctx: context.Background(), ids: upTo(40), errOn: -1,
			want: []int{0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24, 26, 27, 29, 30, 32, 33, 35, 36, 38, 39}},
		{name: "first error cancels the rest", ctx: context.Background(), ids: upTo(20), errOn: 7, wantErr: boom},
		{name: "pre-cancelled context", ctx: cancelled, ids: upTo(20), errOn: -1, wantErr: context.Canceled},
		{name: "no candidates", ctx: context.Background(), errOn: -1},
		{name: "one candidate", ctx: context.Background(), ids: []int{5}, errOn: -1, want: []int{5}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			pool := exec.New(workers)
			filter := func(ctx context.Context, emit func(int) bool) error {
				for _, id := range tc.ids {
					if !emit(id) {
						return nil
					}
				}
				return nil
			}
			check := func(ctx context.Context, id int) (bool, error) {
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
			}
			var got []int
			err := StreamVerified(tc.ctx, pool, filter, func(id int) bool {
				got = append(got, id)
				return true
			}, check)
			pool.Close()
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
	filter := func(ctx context.Context, emit func(int) bool) error {
		for id := 0; id < n; id++ {
			if !emit(id) {
				return nil
			}
		}
		return nil
	}
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
	pool := exec.New(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	filter := func(fctx context.Context, emit func(int) bool) error {
		for id := 0; id < 100; id++ {
			if id == 3 {
				cancel() // caller goes away mid-scan
			}
			if !emit(id) {
				return nil
			}
		}
		return nil
	}
	check := func(gctx context.Context, id int) (bool, error) {
		if err := gctx.Err(); err != nil {
			return false, err
		}
		return false, nil
	}
	err := StreamVerified(ctx, pool, filter, func(int) bool { return true }, check)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline = %v, want context.Canceled", err)
	}
}

func TestAnswerMatchesSequentialOracle(t *testing.T) {
	ds := smallDataset()
	x, err := BuildPath(context.Background(), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.New(2)
	defer pool.Close()
	queries := []*graph.Graph{
		graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}}),
		graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}}),
		graph.MustNew("q", []graph.Label{9, 9}, [][2]int{{0, 1}}),
	}
	for qi, q := range queries {
		want, err := ftv.Answer(context.Background(), x, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Answer(context.Background(), x, q, pool)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: Answer %v vs ftv.Answer %v", qi, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: Answer %v vs ftv.Answer %v", qi, got, want)
			}
		}
	}
}
