package psi_test

// Engine-level sharding tests: a sharded index portfolio must compose with
// the index race unchanged (whole sharded pipelines racing each other),
// answer byte-identically to the monolithic engine at every worker count,
// and feed the shard-balance and sharded-query counters a serving layer
// exposes.

import (
	"context"
	"fmt"
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
	mono := newDatasetEngine(t, ds, psi.EngineOptions{Indexes: kinds})
	if mono.Shards() != 0 {
		t.Errorf("monolithic engine Shards() = %d, want 0", mono.Shards())
	}
	queries := make([]*psi.Graph, 4)
	want := make([][]int, len(queries))
	for i := range queries {
		queries[i] = psi.ExtractQuery(ds[i%len(ds)], 3+i, int64(20+i))
		want[i] = query(t, mono, queries[i], 0).GraphIDs
	}
	for _, workers := range []int{0, 2} {
		sh := newDatasetEngine(t, ds, psi.EngineOptions{Indexes: kinds, Shards: 3, Workers: workers})
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
			res := query(t, sh, q, 0)
			if !slices.Equal(res.GraphIDs, want[i]) {
				t.Errorf("workers=%d q%d: sharded answer %v, monolithic %v",
					workers, i, res.GraphIDs, want[i])
			}
			if res.Winner == "" {
				t.Errorf("workers=%d q%d: raced sharded query reported no winning verifier", workers, i)
			}
			total += len(res.GraphIDs)
			streamed := streamIDs(t, sh, q)
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
		if c := sh.Counters(); c.Queries-c.Errors != int64(2*len(queries)) || sh.Shards() != 3 {
			t.Errorf("workers=%d: %d queries, %d errors on %d shards, want %d answered on 3", workers, c.Queries, c.Errors, sh.Shards(), 2*len(queries))
		}
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
					eng := newDatasetEngine(t, ds, opts)
					if load {
						eng = loadSnapshot(t, saveSnapshot(t, eng), psi.EngineOptions{Mutable: mutable, CompactEvery: 100})
					}
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
	eng := newDatasetEngine(t, ds, psi.EngineOptions{Indexes: []string{"ftv"}, Shards: 2})
	q := psi.ExtractQuery(ds[0], 4, 21)
	first := query(t, eng, q, 0)
	if len(first.GraphIDs) == 0 {
		t.Fatal("fixture query has an empty answer; pick a different seed")
	}
	if replay := query(t, eng, q, 0); !slices.Equal(replay.GraphIDs, first.GraphIDs) {
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
	if c := eng.Counters(); c.Queries != 2 || c.Errors != 0 || eng.Shards() != 2 {
		t.Errorf("%d queries, %d errors on %d shards, want 2 answered (repeats are executed queries) on 2", c.Queries, c.Errors, eng.Shards())
	}
}

// TestShardBalanceAfterRemoval: shards own slots, and a tombstone shifts the
// dense answer IDs after it, so the tally must follow an answer's slot, not
// its ID. Over four identical graphs at K = 2 with the first removed, the
// three answers are slots 1, 2 and 3: one in shard 0, two in shard 1 — on the
// collected and the streamed form alike.
func TestShardBalanceAfterRemoval(t *testing.T) {
	g := psi.MustNewGraph("g", []psi.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	eng := newDatasetEngine(t, []*psi.Graph{g, g, g, g}, psi.EngineOptions{Indexes: []string{"ftv"}, Shards: 2, Mutable: true})
	if _, err := eng.RemoveGraph(context.Background(), eng.Handles()[0]); err != nil {
		t.Fatal(err)
	}
	q := psi.MustNewGraph("q", []psi.Label{0, 1}, [][2]int{{0, 1}})
	if res := query(t, eng, q, 0); !slices.Equal(res.GraphIDs, []int{0, 1, 2}) {
		t.Fatalf("answered %v, want all three live graphs", res.GraphIDs)
	}
	if got := eng.ShardBalance(); !slices.Equal(got, []int64{1, 2}) {
		t.Errorf("collected: ShardBalance = %v, want [1 2]", got)
	}
	streamIDs(t, eng, q)
	if got := eng.ShardBalance(); !slices.Equal(got, []int64{2, 4}) {
		t.Errorf("streamed: ShardBalance = %v, want [2 4]", got)
	}
}

// TestShardedEngineKillCounter checks that a sharded query killed by the
// per-query budget is tallied under Killed (and surfaces as a killed result,
// not an error).
func TestShardedEngineKillCounter(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	eng := newDatasetEngine(t, ds, psi.EngineOptions{Indexes: []string{"ftv"}, Shards: 2, Timeout: time.Nanosecond})
	if res := query(t, eng, psi.ExtractQuery(ds[0], 4, 33), 0); !res.Killed {
		t.Fatalf("query under a 1ns budget not killed: %+v", res)
	}
	c := eng.Counters()
	if c.Queries != 1 || c.Errors != 0 || c.Killed != 1 || eng.Shards() != 2 {
		t.Errorf("counters = queries %d / errors %d / killed %d on %d shards, want 1/0/1 on 2", c.Queries, c.Errors, c.Killed, eng.Shards())
	}
}
