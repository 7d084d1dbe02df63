package psi_test

// Engine-level sharding tests: a sharded index portfolio must compose with
// the index race unchanged (whole sharded pipelines racing each other),
// answer byte-identically to the monolithic engine at every worker count,
// and feed the shard-balance and sharded-query counters a serving layer
// exposes.

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

// TestShardedEngineRaceParity builds the full racing portfolio monolithic
// and sharded (K=3) at two pool sizes and asserts byte-identical collected
// and streamed answers, per-shard stats in IndexStats, and a shard balance
// that accounts for every answered graph ID.
func TestShardedEngineRaceParity(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	kinds, err := psi.ParseIndexSpec("race")
	if err != nil {
		t.Fatal(err)
	}
	mono, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: kinds})
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()
	if mono.Shards() != 0 {
		t.Errorf("monolithic engine Shards() = %d, want 0", mono.Shards())
	}
	queries := make([]*psi.Graph, 4)
	want := make([][]int, len(queries))
	for i := range queries {
		queries[i] = psi.ExtractQuery(ds[i%len(ds)], 3+i, int64(20+i))
		res, err := mono.Query(context.Background(), queries[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.GraphIDs
	}
	for _, workers := range []int{0, 2} {
		sh, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
			Indexes: kinds,
			Shards:  3,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sh.Shards() != 3 {
			t.Fatalf("workers=%d: Shards() = %d, want 3", workers, sh.Shards())
		}
		for _, st := range sh.IndexStats() {
			if st.ShardCount != 3 || len(st.Shards) != 3 {
				t.Errorf("workers=%d: %s ShardCount=%d Shards=%d, want 3/3",
					workers, st.Name, st.ShardCount, len(st.Shards))
			}
		}
		total := 0
		for i, q := range queries {
			res, err := sh.Query(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.GraphIDs, want[i]) {
				t.Errorf("workers=%d q%d: sharded answer %v, monolithic %v",
					workers, i, res.GraphIDs, want[i])
			}
			if len(res.IndexAttempts) == 0 {
				t.Errorf("workers=%d q%d: raced sharded query reported no index attempts", workers, i)
			}
			total += len(res.GraphIDs)
			var streamed []int
			if err := sh.AnswerStream(context.Background(), q, func(id int) bool {
				streamed = append(streamed, id)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(streamed, want[i]) {
				t.Errorf("workers=%d q%d: sharded stream %v, monolithic %v",
					workers, i, streamed, want[i])
			}
			total += len(streamed)
		}
		balance := sh.ShardBalance()
		if len(balance) != 3 {
			t.Fatalf("workers=%d: ShardBalance = %v, want 3 shards", workers, balance)
		}
		var sum int64
		for _, n := range balance {
			sum += n
		}
		if sum != int64(total) {
			t.Errorf("workers=%d: shard balance %v sums to %d, want %d answered IDs",
				workers, balance, sum, total)
		}
		if c := sh.Counters(); c.ShardedQueries != int64(2*len(queries)) {
			t.Errorf("workers=%d: ShardedQueries = %d, want %d", workers, c.ShardedQueries, 2*len(queries))
		}
		sh.Close()
	}
}

// TestIndexStatsAgreeWithShards: whatever an engine's construction — built
// static or mutable, or loaded from either's snapshot — and shard option,
// every index's stats tell the partition Shards() does (no shard count and no
// breakdown when monolithic, K of each otherwise), and the breakdown counts
// the engine's live dataset, before and after a removal that leaves a
// tombstone.
func TestIndexStatsAgreeWithShards(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 8)[:4]
	for _, mutable := range []bool{false, true} {
		for _, load := range []bool{false, true} {
			for _, shards := range []int{0, 1, 2, 64} {
				name := fmt.Sprintf("mutable=%v/loaded=%v/K=%d", mutable, load, shards)
				t.Run(name, func(t *testing.T) {
					opts := psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, Shards: shards, Mutable: mutable, CompactEvery: 100}
					eng, err := psi.NewDatasetEngine(ds, opts)
					if err != nil {
						t.Fatal(err)
					}
					if load {
						path := filepath.Join(t.TempDir(), "e.psnap")
						if err := eng.SaveSnapshot(path); err != nil {
							t.Fatal(err)
						}
						eng.Close()
						if eng, err = psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: path, Mutable: mutable, CompactEvery: 100}); err != nil {
							t.Fatal(err)
						}
					}
					defer eng.Close()
					want := shards
					if !mutable {
						want = min(shards, len(ds))
					}
					if want < 2 {
						want = 0
					}
					if eng.Shards() != want {
						t.Errorf("Shards() = %d, want %d", eng.Shards(), want)
					}
					assertStatsAgree(t, "built", eng)
					if mutable {
						if _, err := eng.RemoveGraph(context.Background(), eng.Handles()[1]); err != nil {
							t.Fatal(err)
						}
						assertStatsAgree(t, "after a removal", eng)
					}
				})
			}
		}
	}
}

// assertStatsAgree checks every index's stats against the engine's Shards()
// and live dataset.
func assertStatsAgree(t *testing.T, when string, eng *psi.Engine) {
	t.Helper()
	for _, st := range eng.IndexStats() {
		if st.ShardCount != eng.Shards() || len(st.Shards) != eng.Shards() {
			t.Errorf("%s: %s ShardCount = %d with %d shard entries, engine Shards() = %d", when, st.Name, st.ShardCount, len(st.Shards), eng.Shards())
		}
		if st.Graphs != len(eng.Dataset()) {
			t.Errorf("%s: %s Graphs = %d, dataset holds %d", when, st.Name, st.Graphs, len(eng.Dataset()))
		}
		sum := 0
		for _, sh := range st.Shards {
			sum += sh.Graphs
		}
		if len(st.Shards) > 0 && sum != st.Graphs {
			t.Errorf("%s: %s per-shard Graphs sum to %d, Graphs = %d", when, st.Name, sum, st.Graphs)
		}
	}
}

// TestShardedEngineRepeatBalance pins the documented ShardBalance
// semantics: every engine-executed query counts, repeats included — the
// tally tracks query traffic per shard, not distinct answers. (Server-layer
// cache replays bypass the engine and are covered by the internal/server
// tests.)
func TestShardedEngineRepeatBalance(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ftv"},
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := psi.ExtractQuery(ds[0], 4, 21)
	first, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.GraphIDs) == 0 {
		t.Fatal("fixture query has an empty answer; pick a different seed")
	}
	replay, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(replay.GraphIDs, first.GraphIDs) {
		t.Fatalf("repeat answered %v, first %v", replay.GraphIDs, first.GraphIDs)
	}
	var sum int64
	for _, n := range eng.ShardBalance() {
		sum += n
	}
	if want := int64(2 * len(first.GraphIDs)); sum != want {
		t.Errorf("shard balance sums to %d after a query and its repeat, want %d (both executions count)",
			sum, want)
	}
	if c := eng.Counters(); c.ShardedQueries != 2 {
		t.Errorf("ShardedQueries = %d, want 2 (repeats are executed queries)", c.ShardedQueries)
	}
}

// TestShardedEngineKillCounter checks that a sharded query killed by the
// per-query budget is tallied under ShardedKilled (and surfaces as a killed
// result, not an error).
func TestShardedEngineKillCounter(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ftv"},
		Shards:  2,
		Timeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := psi.ExtractQuery(ds[0], 4, 33)
	res, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed {
		t.Fatalf("query under a 1ns budget not killed: %+v", res)
	}
	c := eng.Counters()
	if c.ShardedQueries != 1 || c.ShardedKilled != 1 {
		t.Errorf("counters = queries %d / killed %d, want 1/1", c.ShardedQueries, c.ShardedKilled)
	}
}
