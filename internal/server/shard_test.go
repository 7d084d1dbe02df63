package server

// Cache × sharding interaction tests: a sharded dataset engine behind the
// serving layer must replay cached answers byte-identically to fresh ones,
// must never remember a killed (truncated) sharded answer, and must surface
// the shard balance through /stats.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// TestShardedCachedReplayByteParity issues the same query against a sharded
// engine twice in each response mode and asserts the cached replay is
// byte-identical to the fresh answer: same NDJSON result lines, same
// collected graph IDs — the sharding merge must not leak into cache
// semantics.
func TestShardedCachedReplayByteParity(t *testing.T) {
	eng, q := shardedFixture(t, 0)
	srv := New(eng, Options{})
	ts := serve(t, srv)
	body := graphText(t, q)

	// Streamed: fresh, then cached.
	_, fresh := postQuery(t, ts.URL+"/query?stream=1", body)
	_, replay := postQuery(t, ts.URL+"/query?stream=1", body)
	freshLines := bytes.SplitAfter(fresh, []byte("\n"))
	replayLines := bytes.SplitAfter(replay, []byte("\n"))
	if len(freshLines) < 3 {
		t.Fatalf("fixture query answered too little to exercise the merge: %q", fresh)
	}
	if len(freshLines) != len(replayLines) {
		t.Fatalf("cached replay has %d lines, fresh %d", len(replayLines), len(freshLines))
	}
	freshResults := bytes.Join(freshLines[:len(freshLines)-2], nil)
	replayResults := bytes.Join(replayLines[:len(replayLines)-2], nil)
	if !bytes.Equal(freshResults, replayResults) {
		t.Errorf("cached replay result lines differ from fresh:\nfresh  %q\nreplay %q", freshResults, replayResults)
	}
	var freshSum, replaySum StreamSummary
	if err := json.Unmarshal(freshLines[len(freshLines)-2], &freshSum); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(replayLines[len(replayLines)-2], &replaySum); err != nil {
		t.Fatal(err)
	}
	if freshSum.Cached || !replaySum.Cached {
		t.Errorf("cached flags: fresh %v, replay %v — want false/true", freshSum.Cached, replaySum.Cached)
	}
	if replaySum.Found != freshSum.Found {
		t.Errorf("replay found %d, fresh %d", replaySum.Found, freshSum.Found)
	}

	// Collected: the cached JSON answer carries the same graph IDs.
	_, cdata := postQuery(t, ts.URL+"/query", body)
	collected := decode[QueryResponse](t, cdata)
	if !collected.Cached {
		t.Error("collected repeat of a streamed query not served from the shared cache")
	}
	if collected.Found != freshSum.Found || len(collected.GraphIDs) != freshSum.Found {
		t.Errorf("collected cached answer found=%d ids=%d, fresh stream found=%d",
			collected.Found, len(collected.GraphIDs), freshSum.Found)
	}

	// The shard balance reaches /stats (answers attributed to shards once;
	// cached replays never re-count).
	resp, sdata := getStats(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	stats := decode[StatsResponse](t, sdata)
	if stats.Shards != 3 || len(stats.ShardBalance) != 3 {
		t.Fatalf("/stats shards=%d balance=%v, want 3 shards", stats.Shards, stats.ShardBalance)
	}
	var sum int64
	for _, n := range stats.ShardBalance {
		sum += n
	}
	if sum != int64(freshSum.Found) {
		t.Errorf("shard balance %v sums to %d, want the %d fresh answers (cached replays must not re-count)",
			stats.ShardBalance, sum, freshSum.Found)
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
		_, data := postQuery(t, ts.URL+"/query", body)
		resp := decode[QueryResponse](t, data)
		if !resp.Killed {
			t.Fatalf("request %d under a 1ns budget not killed: %s", i, data)
		}
		if resp.Cached {
			t.Fatalf("request %d served a killed answer from cache: %s", i, data)
		}
	}
	_, sdata := postQuery(t, ts.URL+"/query?stream=1", body)
	lines := bytes.SplitAfter(sdata, []byte("\n"))
	sum := decode[StreamSummary](t, lines[len(lines)-2])
	if !sum.Killed || sum.Cached {
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
	eng, err := psi.NewDatasetEngine(psi.GeneratePPI(psi.Tiny, 1), psi.EngineOptions{
		Indexes: []string{"ftv", "grapes"},
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(New(eng, Options{}))
	defer ts.Close()
	_, data := getStats(t, ts.URL)
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

// getStats fetches /stats.
func getStats(t *testing.T, base string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
