package server

// Cache × sharding interaction tests: a sharded dataset engine behind the
// serving layer must replay cached answers byte-identically to fresh ones,
// must never remember a killed (truncated) sharded answer, and must surface
// the shard balance through /stats.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

// shardedFixture builds a sharded FTV engine (K=3, flat path index, no
// engine-level cache) plus a query with a non-empty answer.
func shardedFixture(t *testing.T, timeout time.Duration) (*psi.Engine, *psi.Graph) {
	eng, q, _ := ppiFixture(t, psi.EngineOptions{Shards: 3, Timeout: timeout})
	return eng, q
}

// TestShardedCachedReplayByteParity: behind a sharded engine the cached
// replay is byte-identical to the fresh answer in both response modes — the
// sharding merge must not leak into cache semantics — and the shard balance
// reaches /stats, counting the executions but never a replay.
func TestShardedCachedReplayByteParity(t *testing.T) {
	eng, q := shardedFixture(t, 0)
	ts, found := checkCachedReplay(t, eng, q)
	if found < 2 {
		t.Fatalf("fixture query answered %d graphs, too few to exercise the merge", found)
	}
	stats := decode[StatsResponse](t, call(t, http.MethodGet, ts.URL+"/stats", nil, http.StatusOK))
	var sum int64
	for _, n := range stats.ShardBalance {
		sum += n
	}
	if stats.Shards != 3 || len(stats.ShardBalance) != 3 || sum != int64(3*found) {
		t.Errorf("/stats shards=%d balance=%v, want 3 shards summing to the %d answers of three executions", stats.Shards, stats.ShardBalance, 3*found)
	}
}

// TestKilledShardedQueryNeverCached runs a sharded engine whose per-query
// budget kills everything and asserts the serving layer never remembers the
// truncated answer: repeats stay fresh (and killed) in both response modes
// and the result cache stays empty.
func TestKilledShardedQueryNeverCached(t *testing.T) {
	eng, q := shardedFixture(t, time.Nanosecond)
	srv := New(eng, Options{})
	ts := serve(t, srv)
	body := graphText(t, q)

	for i := 0; i < 2; i++ {
		if resp := collect(t, ts.URL+"/query", body); !resp.Killed || resp.Cached {
			t.Fatalf("request %d under a 1ns budget: %+v, want killed and not served from cache", i, resp)
		}
	}
	_, sdata := postQuery(t, ts.URL+"/query?stream=1", body)
	if _, sum := streamLines(t, sdata); !sum.Killed || sum.Cached {
		t.Fatalf("streamed killed query summary = %+v, want killed and uncached", sum)
	}
	if st := srv.Stats(); st.ResultCache == nil || st.ResultCache.Entries != 0 {
		t.Errorf("result cache holds %+v after killed-only traffic, want 0 entries", st.ResultCache)
	}
	if c := eng.Counters(); c.Queries != 3 || c.Killed != 3 || eng.Shards() < 2 {
		t.Errorf("engine counters %+v on %d shards, want 3 sharded queries, all killed", c, eng.Shards())
	}
}

// TestStatsReportsLocationSets: an operator reads off /stats how much memory
// Grapes' location sets hold and which form they took, per shard and summed;
// a kind that keeps no locations says nothing. Every kind says how many
// postings it holds in how many bytes — the same postings whatever the kind,
// at a couple of bytes each.
func TestStatsReportsLocationSets(t *testing.T) {
	eng, _, _ := ppiFixture(t, psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, Shards: 2})
	data := call(t, http.MethodGet, serve(t, New(eng, Options{})).URL+"/stats", nil, http.StatusOK)
	stats := decode[StatsResponse](t, data)
	for _, x := range stats.Indexes {
		var held, postings, postingBytes int64
		sets := 0
		for _, sh := range x.Shards {
			held += sh.LocationBytes
			sets += sh.LocationRows + sh.LocationLists
			postings += sh.Postings
			postingBytes += sh.PostingBytes
		}
		if x.Postings != postings || x.PostingBytes != postingBytes || postings != stats.Indexes[0].Postings {
			t.Errorf("%s: %d postings in %d bytes, shards sum to %d in %d, %s holds %d", x.Kind, x.Postings, x.PostingBytes, postings, postingBytes, stats.Indexes[0].Kind, stats.Indexes[0].Postings)
		}
		if perPosting := float64(x.PostingBytes) / float64(x.Postings); x.Postings == 0 || perPosting < 2 || perPosting > 3 {
			t.Errorf("%s: %d postings in %d bytes", x.Kind, x.Postings, x.PostingBytes)
		}
		if x.LocationBytes != held || x.LocationRows+x.LocationLists != sets {
			t.Errorf("%s: %d location bytes in %d sets, shards sum to %d in %d", x.Kind, x.LocationBytes, x.LocationRows+x.LocationLists, held, sets)
		}
		if (x.Kind == "grapes") != (x.LocationBytes > 0) {
			t.Errorf("%s reports %d location bytes", x.Kind, x.LocationBytes)
		}
	}
	if n := strings.Count(string(data), `"location_bytes"`); n != 3 { // grapes and its two shards
		t.Errorf("/stats mentions location_bytes %d times, want 3: %s", n, data)
	}
}
