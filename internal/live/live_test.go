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
	"sync"
	"sync/atomic"
	"testing"

	_ "github.com/psi-graph/psi/internal/grapes"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/leakcheck"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/rewrite"
)

const testMaxPathLen = 3

func randomDataset(r *rand.Rand, numGraphs, n, labels int) []*graph.Graph {
	ds := make([]*graph.Graph, numGraphs)
	for i := range ds {
		b := graph.NewBuilder("g")
		for v := 0; v < n; v++ {
			b.AddVertex(graph.Label(r.Intn(labels)))
		}
		for v := 1; v < n; v++ {
			if err := b.AddEdge(r.Intn(v), v); err != nil {
				panic(err)
			}
		}
		ds[i] = b.MustBuild()
	}
	return ds
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

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertParity checks that every kind's snapshot index, in kind order,
// answers exactly like a fresh monolithic build over the snapshot's live
// graphs, and that the snapshot's label frequencies are theirs.
func assertParity(t *testing.T, snap *live.Snapshot, kinds []string) {
	t.Helper()
	if len(snap.Indexes()) != len(kinds) {
		t.Fatalf("snapshot has %d indexes for kinds %v", len(snap.Indexes()), kinds)
	}
	if got, want := snap.Frequencies(), rewrite.FrequenciesOfDataset(snap.Graphs()); !maps.Equal(got, want) {
		t.Errorf("epoch %d: frequencies %v, live dataset's %v", snap.Epoch(), got, want)
	}
	for i, kind := range kinds {
		x := snap.Indexes()[i]
		fresh, err := index.Build(context.Background(), kind, snap.Graphs(), index.Options{MaxPathLen: testMaxPathLen})
		if err != nil {
			t.Fatalf("fresh %s build: %v", kind, err)
		}
		for qi, q := range testQueries() {
			if got, want := x.Filter(q), fresh.Filter(q); !sameInts(got, want) {
				t.Errorf("epoch %d %s q%d: Filter = %v, want %v", snap.Epoch(), kind, qi, got, want)
			}
			got, err := index.Answer(context.Background(), x, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := index.Answer(context.Background(), fresh, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(got, want) {
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
		st, err := live.NewStore(context.Background(), ds, live.Options{
			Kinds: kinds, Shards: k, CompactEvery: 2,
			Index: index.Options{MaxPathLen: testMaxPathLen},
		})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if st.Shards() != k {
			t.Fatalf("K=%d: Shards() = %d", k, st.Shards())
		}
		lastEpoch := st.Epoch()
		if lastEpoch != 1 {
			t.Fatalf("initial epoch = %d, want 1", lastEpoch)
		}
		sawCompaction := false
		for step := 0; step < 10; step++ {
			snap := st.Current()
			handles := snap.Handles()
			op := r.Intn(3)
			if len(handles) == 0 {
				op = 0
			}
			switch op {
			case 0:
				if _, err := st.Add(context.Background(), randomDataset(r, 1, 8, 2)[0]); err != nil {
					t.Fatalf("K=%d step %d: Add: %v", k, step, err)
				}
			case 1:
				compacted, err := st.Remove(context.Background(), handles[r.Intn(len(handles))])
				if err != nil {
					t.Fatalf("K=%d step %d: Remove: %v", k, step, err)
				}
				sawCompaction = sawCompaction || compacted
			case 2:
				h := handles[r.Intn(len(handles))]
				if err := st.Replace(context.Background(), h, randomDataset(r, 1, 8, 2)[0]); err != nil {
					t.Fatalf("K=%d step %d: Replace: %v", k, step, err)
				}
			}
			cur := st.Current()
			if cur.Epoch() != lastEpoch+1 {
				t.Fatalf("K=%d step %d: epoch %d after %d", k, step, cur.Epoch(), lastEpoch)
			}
			lastEpoch = cur.Epoch()
			if len(cur.Handles()) != len(cur.Graphs()) {
				t.Fatalf("K=%d step %d: %d handles for %d graphs", k, step, len(cur.Handles()), len(cur.Graphs()))
			}
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
	st, err := live.NewStore(context.Background(), ds, live.Options{
		Kinds: []string{index.KindPath}, Shards: 2, CompactEvery: 2,
		Index: index.Options{MaxPathLen: testMaxPathLen},
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned := st.Current()
	q := pathQuery(0, 0, 1)
	want, err := index.Answer(context.Background(), pinned.Indexes()[0], q, nil)
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
				if _, err := index.Answer(context.Background(), snap.Indexes()[0], q, nil); err != nil {
					failed.Store(true)
				}
				if len(snap.Handles()) != len(snap.Graphs()) {
					failed.Store(true)
				}
			}
		}()
	}
	mr := rand.New(rand.NewSource(17))
	var handles []live.Handle
	for _, h := range pinned.Handles() {
		handles = append(handles, h)
	}
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
		got, err := index.Answer(context.Background(), pinned.Indexes()[0], q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(got, want) {
			t.Fatalf("pinned snapshot drifted at step %d: %v, want %v", step, got, want)
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
	st, err := live.NewStore(context.Background(), ds, live.Options{
		Kinds: []string{index.KindPath}, Index: index.Options{MaxPathLen: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
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
