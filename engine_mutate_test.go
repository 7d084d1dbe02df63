package psi_test

// Mutable-engine tests: the tentpole parity property (after any mutation
// sequence the engine answers as the oracle does over the final dataset), snapshot isolation with queries concurrently in
// flight under -race, the epoch plumbing through Plan and QueryResult, the
// engine-internal result cache's behavior across mutations, and the
// mutation counters — with a goroutine-leak harness around the churn.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// mutablePool is a seeded supply of small graphs to ingest.
func mutablePool(seed int64, n int) []*psi.Graph {
	var out []*psi.Graph
	for i := 0; i < n; i += 4 {
		out = append(out, psi.GeneratePPI(psi.Tiny, seed+int64(i))...)
	}
	return out[:n]
}

// oracleAnswers is the oracle's answer to each query over ds, which every
// mutable configuration must match byte for byte.
func oracleAnswers(ds, queries []*psi.Graph) [][]int {
	out := make([][]int, len(queries))
	for i, q := range queries {
		out[i] = difftest.Want(ds, q)
	}
	return out
}

// TestMutableEngineParityFuzz drives random interleavings of AddGraph /
// RemoveGraph / ReplaceGraph across index-kind portfolios × shard counts ×
// worker counts, checking after every mutation that collected and streamed
// answers are the oracle's over the live dataset.
func TestMutableEngineParityFuzz(t *testing.T) {
	configs := []struct {
		name    string
		indexes []string
		shards  int
		workers int
	}{
		{"ftv-k1", []string{"ftv"}, 1, 0},
		{"ftv-k3", []string{"ftv"}, 3, 0},
		{"ftv-k2-w2", []string{"ftv"}, 2, 2},
		{"race-k2", []string{"ftv", "grapes"}, 2, 0},
	}
	for ci, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(40 + ci)))
			ds := psi.GeneratePPI(psi.Tiny, 2)
			eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
				Indexes:      cfg.indexes,
				Shards:       cfg.shards,
				Workers:      cfg.workers,
				Mutable:      true,
				CompactEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if !eng.Mutable() {
				t.Fatal("Mutable() = false on a mutable engine")
			}
			if eng.Epoch() != 1 {
				t.Fatalf("initial Epoch() = %d, want 1", eng.Epoch())
			}
			supply := mutablePool(int64(90+ci), 8)
			steps := 8
			if ci > 0 {
				// One config sweeps the full-length sequence; the rest keep
				// the matrix breadth at a CI-affordable depth under -race.
				steps = 5
			}
			for step := 0; step < steps; step++ {
				handles := eng.Handles()
				epochBefore := eng.Epoch()
				op := r.Intn(3)
				if len(handles) < 3 {
					op = 0 // keep the dataset big enough to query
				}
				switch op {
				case 0:
					if _, err := eng.AddGraph(context.Background(), supply[step%len(supply)]); err != nil {
						t.Fatalf("step %d: AddGraph: %v", step, err)
					}
				case 1:
					if _, err := eng.RemoveGraph(context.Background(), handles[r.Intn(len(handles))]); err != nil {
						t.Fatalf("step %d: RemoveGraph: %v", step, err)
					}
				case 2:
					h := handles[r.Intn(len(handles))]
					if err := eng.ReplaceGraph(context.Background(), h, supply[(step+3)%len(supply)]); err != nil {
						t.Fatalf("step %d: ReplaceGraph: %v", step, err)
					}
				}
				if eng.Epoch() != epochBefore+1 {
					t.Fatalf("step %d: epoch %d after %d", step, eng.Epoch(), epochBefore)
				}
				cur := eng.Dataset()
				if got := eng.Handles(); len(got) != len(cur) {
					t.Fatalf("step %d: %d handles for %d graphs", step, len(got), len(cur))
				}
				var queries []*psi.Graph
				for qi := 0; qi < 2 && qi < len(cur); qi++ {
					queries = append(queries, psi.ExtractQuery(cur[(step+qi)%len(cur)], 3+qi, int64(step*7+qi)))
				}
				want := oracleAnswers(cur, queries)
				for qi, q := range queries {
					res, err := eng.Query(context.Background(), q, 0)
					if err != nil {
						t.Fatalf("step %d q%d: %v", step, qi, err)
					}
					if !slices.Equal(res.GraphIDs, want[qi]) {
						t.Errorf("step %d q%d: mutable answer %v, the oracle %v", step, qi, res.GraphIDs, want[qi])
					}
					if res.Epoch != eng.Epoch() {
						t.Errorf("step %d q%d: result epoch %d, engine epoch %d", step, qi, res.Epoch, eng.Epoch())
					}
					var streamed []int
					sres, err := eng.AnswerStream(context.Background(), q, func(id int) bool {
						streamed = append(streamed, id)
						return true
					})
					if err != nil {
						t.Fatalf("step %d q%d stream: %v", step, qi, err)
					}
					if !slices.Equal(streamed, want[qi]) {
						t.Errorf("step %d q%d: streamed answer %v, the oracle %v", step, qi, streamed, want[qi])
					}
					if sres.Epoch != res.Epoch {
						t.Errorf("step %d q%d: stream epoch %d, collected epoch %d", step, qi, sres.Epoch, res.Epoch)
					}
				}
			}
			snap := eng.Counters()
			if snap.GraphsAdded+snap.GraphsRemoved+snap.GraphsReplaced != int64(steps) {
				t.Errorf("mutation counters sum %d+%d+%d, want %d",
					snap.GraphsAdded, snap.GraphsRemoved, snap.GraphsReplaced, steps)
			}
		})
	}
}

// TestMutableEngineConcurrentChurn mutates while queries race in flight:
// readers hammer a fixed query and assert that the answer they get is
// exactly the recorded answer of the epoch their result reports — snapshot
// isolation, end to end, under -race — then checks for leaked goroutines. It
// runs one index, and two-index races whose arms read tombstoned views
// across compactions, their verifications nested on the engine's one pool:
// one of an inserting kind beside Grapes, which rebuilds, for each flat kind,
// and once more with Grapes/2, whose component fan-out nests inside the arms'
// verifications.
func TestMutableEngineConcurrentChurn(t *testing.T) {
	for _, tc := range []struct {
		kinds   []string
		workers int
	}{{[]string{"ftv"}, 0}, {[]string{"ftv", "grapes"}, 0}, {[]string{"ggsx", "grapes"}, 0}, {[]string{"ftv", "grapes"}, 2}} {
		name := strings.Join(tc.kinds, "+")
		if tc.workers > 0 {
			name += fmt.Sprintf(",IndexWorkers=%d", tc.workers)
		}
		t.Run(name, func(t *testing.T) { concurrentChurn(t, tc.kinds, tc.workers) })
	}
}

func concurrentChurn(t *testing.T, kinds []string, indexWorkers int) {
	leakcheck.Check(t, 2)
	ds := psi.GeneratePPI(psi.Tiny, 2)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes:      kinds,
		IndexPolicy:  psi.IndexRace,
		IndexWorkers: indexWorkers,
		Shards:       2,
		Mutable:      true,
		CompactEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := psi.ExtractQuery(ds[0], 3, 77)

	// expected[epoch] is the oracle's answer at that epoch,
	// recorded synchronously after each mutation (and before for epoch 1).
	var expMu sync.RWMutex
	expected := map[uint64][]int{}
	record := func() {
		res, err := eng.Query(context.Background(), q, 0)
		if err != nil {
			t.Errorf("record: %v", err)
			return
		}
		want := difftest.Want(eng.Dataset(), q)
		if !slices.Equal(res.GraphIDs, want) {
			t.Errorf("epoch %d: engine answer %v, the oracle %v", res.Epoch, res.GraphIDs, want)
		}
		expMu.Lock()
		expected[res.Epoch] = want
		expMu.Unlock()
	}
	record()

	var wg sync.WaitGroup
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
				res, err := eng.Query(context.Background(), q, 0)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				// Yield between queries so the single-CPU race build's
				// mutator is not starved by three spinning readers.
				time.Sleep(time.Millisecond)
				expMu.RLock()
				want, ok := expected[res.Epoch]
				expMu.RUnlock()
				if ok && !slices.Equal(res.GraphIDs, want) {
					t.Errorf("epoch %d: reader got %v, epoch's answer is %v", res.Epoch, res.GraphIDs, want)
					return
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(13))
	supply := mutablePool(55, 8)
	for step := 0; step < 10; step++ {
		handles := eng.Handles()
		if len(handles) > 3 && r.Intn(2) == 0 {
			if _, err := eng.RemoveGraph(context.Background(), handles[r.Intn(len(handles))]); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := eng.AddGraph(context.Background(), supply[step%len(supply)]); err != nil {
				t.Fatal(err)
			}
		}
		record()
	}
	close(stop)
	wg.Wait()
	if eng.Counters().Compactions == 0 {
		t.Error("the churn never compacted a shard")
	}
	eng.Close()
}

// TestMutableEngineFreshness pins a repeated query's correctness across
// mutations on a fixed-policy engine: the answer must follow the dataset,
// because every epoch gets fresh query-serving state.
func TestMutableEngineFreshness(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ftv"},
		Mutable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	donor := ds[1]
	q := psi.ExtractQuery(donor, 3, 9)
	first, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the query, then ingest a copy of the donor graph: the query
	// must now also match the newcomer.
	if _, err := eng.Query(context.Background(), q, 0); err != nil {
		t.Fatal(err)
	}
	h, err := eng.AddGraph(context.Background(), donor)
	if err != nil {
		t.Fatal(err)
	}
	after, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	newID := len(eng.Dataset()) - 1
	if !slices.Contains(after.GraphIDs, newID) {
		t.Fatalf("after ingest: answer %v misses the new graph %d (stale state?); before was %v",
			after.GraphIDs, newID, first.GraphIDs)
	}
	// And after removing it the answer must shrink back.
	if _, err := eng.RemoveGraph(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	final, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(final.GraphIDs, first.GraphIDs) {
		t.Fatalf("after remove: answer %v, want the original %v", final.GraphIDs, first.GraphIDs)
	}
}

// TestMutableEngineAPI covers the mutation API's contract edges: static
// engines reject mutations, unknown handles error, plans carry the epoch,
// and compaction is reported and counted.
func TestMutableEngineAPI(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	static, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv"}})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	if static.Mutable() {
		t.Error("static engine reports Mutable")
	}
	if static.Epoch() != 0 {
		t.Errorf("static engine Epoch() = %d, want 0", static.Epoch())
	}
	if static.Handles() != nil {
		t.Error("static engine has handles")
	}
	if _, err := static.AddGraph(context.Background(), ds[0]); err == nil {
		t.Error("AddGraph on a static engine did not error")
	}
	if _, err := static.RemoveGraph(context.Background(), 1); err == nil {
		t.Error("RemoveGraph on a static engine did not error")
	}
	if err := static.ReplaceGraph(context.Background(), 1, ds[0]); err == nil {
		t.Error("ReplaceGraph on a static engine did not error")
	}

	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ftv"}, Mutable: true, CompactEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.RemoveGraph(context.Background(), 999); err == nil {
		t.Error("RemoveGraph(unknown) did not error")
	}
	if err := eng.ReplaceGraph(context.Background(), 999, ds[0]); err == nil {
		t.Error("ReplaceGraph(unknown) did not error")
	}
	p, err := eng.Plan(psi.ExtractQuery(ds[0], 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Errorf("epoch after construction = %d, want 1", res.Epoch)
	}
	// CompactEvery=1: the very first removal must compact.
	compacted, err := eng.RemoveGraph(context.Background(), eng.Handles()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !compacted {
		t.Error("CompactEvery=1 removal did not compact")
	}
	snap := eng.Counters()
	if snap.GraphsRemoved != 1 || snap.Compactions != 1 {
		t.Errorf("counters removed=%d compactions=%d, want 1/1", snap.GraphsRemoved, snap.Compactions)
	}
}
