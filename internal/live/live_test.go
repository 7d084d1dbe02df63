package live_test

// The mutable store's acceptance properties: (1) mutation parity — after any
// random sequence of Add/Remove/Replace, every kind's snapshot index answers
// byte-identically to a from-scratch build over the live graphs; (2)
// snapshot isolation — a pinned snapshot keeps answering exactly as it did
// while mutations churn underneath it. All run under -race in CI.

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/leakcheck"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/rewrite"
)

const testMaxPathLen = 3

// randomDataset is numGraphs random trees of n vertices over labels labels.
func randomDataset(r *rand.Rand, numGraphs, n, labels int) []*graph.Graph {
	ds := make([]*graph.Graph, numGraphs)
	for i := range ds {
		ds[i] = difftest.Graph(r, n, 0, labels)
	}
	return ds
}

// newStore builds a store over ds under opts that the test closes when it
// ends.
func newStore(t *testing.T, ds []*graph.Graph, opts live.Options) *live.Store {
	t.Helper()
	st, err := live.NewStore(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// restore restores a store from state that the test closes when it ends.
func restore(t *testing.T, state live.State, compactEvery int, opts index.Options) *live.Store {
	t.Helper()
	st, err := live.Restore(state, compactEvery, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// pathQuery is a deterministic little 2-edge path query over the label
// alphabet; with 2 labels it hits most random graphs and misses some, which
// is exactly the discriminating shape a parity check wants.
func pathQuery(l0, l1, l2 graph.Label) *graph.Graph {
	return graph.MustNew("q", []graph.Label{l0, l1, l2}, [][2]int{{0, 1}, {1, 2}})
}

func testQueries() []*graph.Graph {
	return []*graph.Graph{
		pathQuery(0, 0, 1),
		pathQuery(1, 0, 1),
		graph.MustNew("edge", []graph.Label{0, 1}, [][2]int{{0, 1}}),
		graph.MustNew("edgeless", []graph.Label{0}, nil),
	}
}

// answer is the snapshot's answer to q under kind's verifier alone, through
// the pipeline a dataset engine runs over the snapshot's one table.
func answer(t *testing.T, snap *live.Snapshot, kind string, q *graph.Graph) []int {
	t.Helper()
	v, err := index.NewVerifier(kind, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	_, err = core.StreamFTV(context.Background(), nil, snap.Table(), v, snap.Frequencies(), []rewrite.Kind{rewrite.Orig}, q, func(id int) bool {
		ids = append(ids, id)
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return ids
}

// assertParity checks that the snapshot's table, under every kind's
// verifier, answers exactly like a fresh monolithic build of that kind over
// the snapshot's live graphs, and that the snapshot's label frequencies are
// theirs.
func assertParity(t *testing.T, snap *live.Snapshot, kinds []string) {
	t.Helper()
	if got, want := snap.Table().Stats().Kind, index.TableKind(kinds); got != want {
		t.Fatalf("snapshot serves %v from a %s table, want %s", kinds, got, want)
	}
	if got, want := snap.Frequencies(), rewrite.FrequenciesOfDataset(snap.Graphs()); !maps.Equal(got, want) {
		t.Errorf("epoch %d: frequencies %v, live dataset's %v", snap.Epoch(), got, want)
	}
	for _, kind := range kinds {
		fresh, err := index.Build(context.Background(), kind, snap.Graphs(), 1, index.Options{MaxPathLen: testMaxPathLen})
		if err != nil {
			t.Fatalf("fresh %s build: %v", kind, err)
		}
		for qi, q := range testQueries() {
			if got, want := snap.Table().Filter(q), fresh.Filter(q); !slices.Equal(got, want) {
				t.Errorf("epoch %d %s q%d: Filter = %v, want %v", snap.Epoch(), kind, qi, got, want)
			}
			got := answer(t, snap, kind, q)
			want, err := index.Answer(context.Background(), fresh, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("epoch %d %s q%d: Answer = %v, want %v", snap.Epoch(), kind, qi, got, want)
			}
		}
		fresh.Close()
	}
}

// TestMutationParityFuzz is the tentpole property: random interleavings of
// Add/Remove/Replace across every registered kind and several shard counts,
// parity-checked against a from-scratch rebuild after every mutation —
// including through compactions (CompactEvery=2 forces them early).
func TestMutationParityFuzz(t *testing.T) {
	kinds := index.Kinds()
	for _, k := range []int{1, 2, 3} {
		r := rand.New(rand.NewSource(int64(100 + k)))
		ds := randomDataset(r, 4, 8, 2)
		st := newStore(t, ds, live.Options{
			Kinds: kinds, Shards: k, CompactEvery: 2,
			Index: index.Options{MaxPathLen: testMaxPathLen},
		})
		lastEpoch := st.Epoch()
		if st.Shards() != k || lastEpoch != 1 {
			t.Fatalf("K=%d: Shards() = %d, initial epoch %d; want %d and 1", k, st.Shards(), lastEpoch, k)
		}
		sawCompaction := false
		for step := 0; step < 10; step++ {
			snap := st.Current()
			handles := snap.Handles()
			op := r.Intn(3)
			if len(handles) == 0 {
				op = 0
			}
			var err error
			switch op {
			case 0:
				_, err = st.Add(context.Background(), randomDataset(r, 1, 8, 2)[0])
			case 1:
				var compacted bool
				compacted, err = st.Remove(context.Background(), handles[r.Intn(len(handles))])
				sawCompaction = sawCompaction || compacted
			case 2:
				h := handles[r.Intn(len(handles))]
				err = st.Replace(context.Background(), h, randomDataset(r, 1, 8, 2)[0])
			}
			cur := st.Current()
			if err != nil || cur.Epoch() != lastEpoch+1 || len(cur.Handles()) != len(cur.Graphs()) {
				t.Fatalf("K=%d step %d: op %d = %v, epoch %d after %d, %d handles for %d graphs", k, step, op, err, cur.Epoch(), lastEpoch, len(cur.Handles()), len(cur.Graphs()))
			}
			lastEpoch = cur.Epoch()
			assertParity(t, cur, kinds)
		}
		if !sawCompaction && k == 1 {
			t.Error("CompactEvery=2 never compacted over 10 mutations")
		}
		st.Close()
	}
}

// TestSnapshotIsolationUnderChurn pins a snapshot, records its answers, then
// hammers the store with concurrent mutations and concurrent readers of the
// moving head; the pinned snapshot must keep answering byte-identically
// throughout, and no goroutines may survive the churn.
func TestSnapshotIsolationUnderChurn(t *testing.T) {
	leakcheck.Check(t, 2) // everything spawned must drain
	r := rand.New(rand.NewSource(5))
	ds := randomDataset(r, 6, 8, 2)
	st := newStore(t, ds, live.Options{
		Kinds: []string{index.KindPath}, Shards: 2, CompactEvery: 2,
		Index: index.Options{MaxPathLen: testMaxPathLen},
	})
	pinned := st.Current()
	q := pathQuery(0, 0, 1)
	want, err := index.Answer(context.Background(), pinned.Table(), q, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var failed atomic.Bool
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Current()
				if _, err := index.Answer(context.Background(), snap.Table(), q, nil); err != nil || len(snap.Handles()) != len(snap.Graphs()) {
					failed.Store(true)
				}
			}
		}()
	}
	mr := rand.New(rand.NewSource(17))
	handles := slices.Clone(pinned.Handles())
	for step := 0; step < 30; step++ {
		if len(handles) > 2 && mr.Intn(2) == 0 {
			i := mr.Intn(len(handles))
			if _, err := st.Remove(context.Background(), handles[i]); err != nil {
				t.Fatal(err)
			}
			handles = append(handles[:i], handles[i+1:]...)
		} else {
			h, err := st.Add(context.Background(), randomDataset(mr, 1, 8, 2)[0])
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		if got, err := index.Answer(context.Background(), pinned.Table(), q, nil); err != nil || !slices.Equal(got, want) {
			t.Fatalf("pinned snapshot drifted at step %d: %v (%v), want %v", step, got, err, want)
		}
	}
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.Error("concurrent reader saw an inconsistent snapshot")
	}
	st.Close()
}

// TestStoreErrors covers the argument-validation surface.
func TestStoreErrors(t *testing.T) {
	if _, err := live.NewStore(context.Background(), nil, live.Options{}); err == nil {
		t.Error("NewStore with no kinds did not error")
	}
	if _, err := live.NewStore(context.Background(), nil, live.Options{Kinds: []string{"no-such-kind"}}); err == nil {
		t.Error("NewStore with unregistered kind did not error")
	}
	r := rand.New(rand.NewSource(1))
	ds := randomDataset(r, 2, 6, 2)
	st := newStore(t, ds, live.Options{
		Kinds: []string{index.KindPath}, Index: index.Options{MaxPathLen: 2},
	})
	if _, err := st.Remove(context.Background(), 99); err == nil {
		t.Error("Remove(unknown) did not error")
	}
	if err := st.Replace(context.Background(), 99, ds[0]); err == nil {
		t.Error("Replace(unknown) did not error")
	}
	// Double-remove of the same handle must fail the second time.
	snap := st.Current()
	h := snap.Handles()[0]
	if _, err := st.Remove(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Remove(context.Background(), h); err == nil {
		t.Error("double Remove did not error")
	}
}
