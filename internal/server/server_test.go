package server

// Regression tests for the serving subsystem, run under -race by
// scripts/check.sh: admission rejection at the limit, client disconnects
// cancelling the underlying work without goroutine leaks, graceful drain
// with zero dropped in-flight responses, and NDJSON stream parity with the
// collected Engine.Execute answer.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// ppiFixture builds a dataset engine over a tiny PPI dataset under opts,
// serving "ftv" when opts names no index, that the test closes when it ends,
// plus a query with a non-empty answer and the dataset.
func ppiFixture(t *testing.T, opts psi.EngineOptions) (*psi.Engine, *psi.Graph, []*psi.Graph) {
	t.Helper()
	ds := psi.GeneratePPI(psi.Tiny, 1)
	if len(opts.Indexes) == 0 {
		opts.Indexes = []string{"ftv"}
	}
	eng, err := psi.NewDatasetEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, psi.ExtractQuery(ds[0], 4, 7), ds
}

// datasetFixture is ppiFixture's one-table FTV engine (no engine cache, so
// server-cache behavior is observable in isolation) and its query.
func datasetFixture(t *testing.T) (*psi.Engine, *psi.Graph) {
	eng, q, _ := ppiFixture(t, psi.EngineOptions{})
	return eng, q
}

// graphText serializes q in the module's text format — the /query body.
func graphText(t *testing.T, q *psi.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteGraph(&buf, q); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serve starts srv behind an httptest server that the test closes when it
// ends.
func serve(t *testing.T, srv *Server) *httptest.Server {
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// decode unmarshals a JSON body into a T and fails the test when it cannot.
func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decoding %T: %v (%q)", v, err, data)
	}
	return v
}

func postQuery(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestStreamMatchesExecuteBytes verifies the acceptance contract: the
// streamed NDJSON answer is byte-identical to what Engine.Execute's
// collected answer serializes to, line for line (checkCachedReplay), sent as
// NDJSON and closed by a summary naming the winner.
func TestStreamMatchesExecuteBytes(t *testing.T) {
	eng, q := datasetFixture(t)
	ts, _ := checkCachedReplay(t, eng, q)
	resp, data := postQuery(t, ts.URL+"/query?stream=1&cache=0", graphText(t, q))
	_, sum := streamLines(t, data)
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" || !sum.Done || sum.Winner == "" {
		t.Errorf("stream status %d, Content-Type %q, summary %+v; want 200 NDJSON done with its winner", resp.StatusCode, ct, sum)
	}
}

// TestCollectedQueryAndCache verifies the JSON response path and that the
// second identical query is served from the shared result cache, in both
// response modes.
func TestCollectedQueryAndCache(t *testing.T) {
	eng, q := datasetFixture(t)
	checkCachedReplay(t, eng, q)
}

// checkCachedReplay serves eng and asks it q four times: collected without
// the cache, then streamed, collected and streamed again through it. It
// fails unless the fresh answers are eng's own, uncached, the stream writing
// its IDs one line each, and both repeats replay the streamed answer from
// the one cache entry: the reply the fresh collected execution gave apart
// from the cached marker, and the very ID lines the fresh stream wrote. It
// returns the server and the answer's size; eng ran q three times.
func checkCachedReplay(t *testing.T, eng *psi.Engine, q *psi.Graph) (*httptest.Server, int) {
	t.Helper()
	srv := New(eng, Options{CacheSize: 8})
	ts := serve(t, srv)
	direct, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := graphText(t, q)
	fresh := collect(t, ts.URL+"/query?cache=0", body)
	if fresh.Cached || !slices.Equal(fresh.GraphIDs, direct.GraphIDs) || fresh.Found != len(direct.GraphIDs) {
		t.Fatalf("fresh answer = %+v, want uncached %v", fresh, direct.GraphIDs)
	}
	_, streamed := postQuery(t, ts.URL+"/query?stream=1", body)
	cached := collect(t, ts.URL+"/query", body)
	_, replay := postQuery(t, ts.URL+"/query?stream=1", body)
	freshIDs, freshSum := streamLines(t, streamed)
	replayIDs, replaySum := streamLines(t, replay)
	var want bytes.Buffer
	for _, id := range direct.GraphIDs {
		fmt.Fprintf(&want, "{\"graph_id\":%d}\n", id)
	}
	if !bytes.Equal(freshIDs, want.Bytes()) || freshSum.Found != len(direct.GraphIDs) || freshSum.Cached || freshSum.Killed || freshSum.Error != "" {
		t.Errorf("fresh stream %q (%+v), want the Execute answer's lines %q", freshIDs, freshSum, want.Bytes())
	}
	if !cached.Cached || !slices.Equal(cached.GraphIDs, fresh.GraphIDs) || cached.Kind != fresh.Kind || cached.Winner != freshSum.Winner || cached.Found != fresh.Found {
		t.Errorf("collected repeat %+v is not the streamed answer (%+v) served from cache", cached, freshSum)
	}
	if !bytes.Equal(replayIDs, freshIDs) || !replaySum.Cached || replaySum.Found != freshSum.Found {
		t.Errorf("streamed repeat %q (%+v), fresh %q (%+v); want the same ids, cached", replayIDs, replaySum, freshIDs, freshSum)
	}
	if cc := srv.cache.counters(); cc.Hits != 2 || cc.Entries != 1 {
		t.Errorf("cache counters = %+v, want 2 hits over 1 entry", cc)
	}
	return ts, len(direct.GraphIDs)
}

// TestAdmissionLimitRejectsOverflow holds MaxInFlight requests open and
// verifies the next one is rejected immediately with 429 — then admitted
// again once a slot frees.
func TestAdmissionLimitRejectsOverflow(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{MaxInFlight: 2})
	gate := make(chan struct{})
	srv.admittedHook = func(ctx context.Context) { <-gate }
	ts := serve(t, srv)

	body := graphText(t, q)
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postQuery(t, ts.URL+"/query", body)
			codes[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, func() bool { return srv.InFlight() == 2 })

	resp, data := postQuery(t, ts.URL+"/query", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("N+1st query status = %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(gate)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("held request %d finished with %d", i, c)
		}
	}
	resp, _ = postQuery(t, ts.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release query status = %d, want 200", resp.StatusCode)
	}
}

// slowFixture builds an NFV engine whose fixture query has a combinatorial
// embedding count — enumeration takes long enough that a client disconnect
// lands mid-stream.
func slowFixture(t *testing.T) (*psi.Engine, *psi.Graph) {
	t.Helper()
	b := psi.NewBuilder("dense")
	const n = 96
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < i+16 && j < n; j++ {
			if err := b.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nfvEngine(t, b.MustBuild(), psi.EngineOptions{}), psi.MustNewGraph("path5", []psi.Label{0, 0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
}

// nfvEngine builds a stored-graph engine over g that the test closes when it
// ends.
func nfvEngine(t *testing.T, g *psi.Graph, opts psi.EngineOptions) *psi.Engine {
	t.Helper()
	eng, err := psi.NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestClientDisconnectCancelsQuery reads one streamed line, drops the
// connection, and verifies the in-flight slot is released and no goroutines
// leak — i.e. the disconnect cancelled the underlying race.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	eng, q := slowFixture(t)
	srv := New(eng, Options{CacheSize: -1})
	ts := serve(t, srv)

	leakcheck.Check(t, 2) // a leak here means the disconnect did not cancel the race
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/query?stream=1&limit=10000", bytes.NewReader(graphText(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first streamed line: %v", err)
	}
	cancel() // client walks away mid-stream
	resp.Body.Close()

	waitFor(t, func() bool { return srv.InFlight() == 0 })
	http.DefaultClient.CloseIdleConnections()
}

// TestGracefulDrain verifies the shutdown contract: draining rejects new
// queries with 503 while the in-flight one still completes in full, and a
// straggler past the drain deadline is cancelled through its context yet
// still receives its summary line — zero dropped responses either way.
func TestGracefulDrain(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{})
	gate := make(chan struct{})
	srv.admittedHook = func(ctx context.Context) { <-gate }
	ts := serve(t, srv)

	body := graphText(t, q)
	type outcome struct {
		code int
		data []byte
	}
	held := make(chan outcome, 1)
	go func() {
		resp, data := postQuery(t, ts.URL+"/query?stream=1&cache=0", body)
		held <- outcome{resp.StatusCode, data}
	}()
	waitFor(t, func() bool { return srv.InFlight() == 1 })

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return srv.Draining() })

	resp, _ := postQuery(t, ts.URL+"/query", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", resp.StatusCode)
	}
	hz, _ := http.Get(ts.URL + "/healthz")
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hz.StatusCode)
	}
	hz.Body.Close()

	close(gate) // let the in-flight query finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	out := <-held
	if _, sum := streamLines(t, out.data); out.code != http.StatusOK || !sum.Done {
		t.Errorf("in-flight query during drain: status %d, summary %+v; want 200, done", out.code, sum)
	}
}

// TestDrainDeadlineCancelsStragglers verifies the forced path: a straggler
// held past the drain deadline is cancelled through its context, Shutdown
// returns the deadline error, and the straggler still gets a response.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	eng, q := slowFixture(t)
	srv := New(eng, Options{CacheSize: -1, DefaultLimit: 1_000_000})
	ts := serve(t, srv)

	held := make(chan []byte, 1)
	go func() {
		_, data := postQuery(t, ts.URL+"/query?stream=1&cache=0&limit=1000000", graphText(t, q))
		held <- data
	}()
	waitFor(t, func() bool { return srv.InFlight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	data := <-held
	if !bytes.Contains(data, []byte("\"error\"")) && !bytes.Contains(data, []byte("\"done\"")) {
		t.Errorf("straggler got no terminal line: %q", data)
	}
}

// TestSlowReaderCannotStallDrain opens a streamed query and never reads
// the response: once TCP buffers fill, the handler blocks inside a write
// that cannot observe context cancellation. A forced drain must still
// complete within the write-unblock grace — the armed write deadline
// errors the blocked write and frees the admission slot — instead of
// hanging Shutdown forever on a client that walked away without closing.
func TestSlowReaderCannotStallDrain(t *testing.T) {
	eng, q := slowFixture(t)
	srv := New(eng, Options{CacheSize: -1, DefaultLimit: 1_000_000})
	ts := serve(t, srv)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := graphText(t, q)
	fmt.Fprintf(conn, "POST /query?stream=1&cache=0&limit=10000000 HTTP/1.1\r\nHost: t\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body)
	waitFor(t, func() bool { return srv.InFlight() == 1 })
	time.Sleep(300 * time.Millisecond) // let the unread stream fill the socket buffers

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("forced drain returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain against a non-reading client took %v", elapsed)
	}
	if srv.InFlight() != 0 {
		t.Errorf("slow reader still pins %d admission slots after drain", srv.InFlight())
	}
}

// TestRequestValidation exercises the 4xx paths.
func TestRequestValidation(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{})
	ts := serve(t, srv)

	cases := []struct {
		name, url string
		body      []byte
		want      int
	}{
		{"garbage body", ts.URL + "/query", []byte("not a graph"), http.StatusBadRequest},
		{"empty body", ts.URL + "/query", nil, http.StatusBadRequest},
		{"bad limit", ts.URL + "/query?limit=zap", graphText(t, q), http.StatusBadRequest},
		{"bad timeout", ts.URL + "/query?timeout_ms=-3", graphText(t, q), http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, data := postQuery(t, c.url, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, data, c.want)
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %q", c.name, data)
		}
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
	}
}

// TestStreamOnClosedDatasetEngine: a closed dataset engine holds no dataset
// but is still a dataset engine, so a streamed query on it ends on the error
// the collected path reports, not on the stored-graph stream's.
func TestStreamOnClosedDatasetEngine(t *testing.T) {
	eng, q := datasetFixture(t)
	eng.Close()
	_, data := postQuery(t, serve(t, New(eng, Options{})).URL+"/query?stream=1", graphText(t, q))
	if sum := decode[StreamSummary](t, bytes.TrimSpace(data)); !strings.Contains(sum.Error, "engine closed") {
		t.Errorf("streamed query on a closed dataset engine ended on %+v, want the engine closed error", sum)
	}
}

// getStatsAndMetrics reads both observability endpoints of a test server.
func getStatsAndMetrics(t *testing.T, url string) (StatsResponse, string) {
	t.Helper()
	_, data := do(t, http.MethodGet, url+"/stats", nil)
	st := decode[StatsResponse](t, data)
	_, metrics := do(t, http.MethodGet, url+"/metrics", nil)
	return st, string(metrics)
}

// TestStatsAndMetrics verifies the observability endpoints reflect the
// engine's counters after traffic: behind a fixed single index, and behind
// the learned index policy, whose decisions and per-arm evidence they must
// carry while the answers stay those of the always-race engine.
func TestStatsAndMetrics(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{})
	ts := serve(t, srv)

	body := graphText(t, q)
	postQuery(t, ts.URL+"/query", body)
	postQuery(t, ts.URL+"/query", body) // cache hit: no engine query

	resp, _ := postQuery(t, ts.URL+"/stats", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats status = %d, want 405", resp.StatusCode)
	}
	st, metrics := getStatsAndMetrics(t, ts.URL)
	if st.Engine.Queries != 1 {
		t.Errorf("engine queries = %d, want 1 (second request was a cache hit)", st.Engine.Queries)
	}
	if st.Admitted != 2 || st.Capacity == 0 || st.DatasetGraphs == 0 {
		t.Errorf("stats = %+v, want 2 admitted with capacity and dataset populated", st)
	}
	if st.ResultCache == nil || st.ResultCache.Hits != 1 {
		t.Errorf("result cache stats = %+v, want 1 hit", st.ResultCache)
	}
	if len(st.Indexes) != 1 || st.Indexes[0].Kind != "ftv" {
		t.Errorf("index stats = %+v", st.Indexes)
	}
	if st.Policy != nil {
		t.Errorf("fixed-index engine reports a learned policy: %+v", st.Policy)
	}
	for _, want := range []string{
		"psi_engine_queries_total 1",
		"psi_server_admitted_total 2",
		"psi_server_cache_hits_total 1",
		"psi_server_draining 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The learned policy. The result cache is off so every repeat reaches the
	// engine: the first three passes race and train the bandit (its default
	// warm-up of three samples per query class), the fourth runs solo.
	_, _, ds := ppiFixture(t, psi.EngineOptions{})
	kinds := []string{"ftv", "grapes", "ggsx"}
	urls := map[string]string{}
	for _, policy := range []string{psi.IndexAuto, psi.IndexRace} {
		peng, _, _ := ppiFixture(t, psi.EngineOptions{Indexes: kinds, IndexPolicy: policy})
		urls[policy] = serve(t, New(peng, Options{CacheSize: -1})).URL
	}
	for pass := 0; pass < 4; pass++ {
		for seed := int64(1); seed <= 4; seed++ {
			body := graphText(t, psi.ExtractQuery(ds[int(seed)%len(ds)], 3+int(seed)%3, seed))
			_, auto := postQuery(t, urls[psi.IndexAuto]+"/query?stream=1", body)
			_, race := postQuery(t, urls[psi.IndexRace]+"/query?stream=1", body)
			got, _ := streamLines(t, auto)
			want, _ := streamLines(t, race)
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d seed %d: auto streamed\n%s\nrace streamed\n%s", pass, seed, got, want)
			}
		}
	}
	st, metrics = getStatsAndMetrics(t, urls[psi.IndexAuto])
	// One arm per verifier: ftv and ggsx select the same one.
	if st.Mode != string(psi.ModeAuto) || st.Policy == nil || len(st.Policy.Arms) != 2 {
		t.Fatalf("stats policy = %q %+v, want auto with one arm per verifier", st.Mode, st.Policy)
	}
	if st.Engine.PolicySolo == 0 || !strings.Contains(metrics, fmt.Sprintf("psi_engine_policy_solo_total %d\n", st.Engine.PolicySolo)) {
		t.Errorf("solo runs = %d, want > 0 and on /metrics:\n%s", st.Engine.PolicySolo, metrics)
	}
	for _, arm := range st.Policy.Arms {
		for _, series := range []string{"race_wins_total", "solo_runs_total", "kills_total", "mean_latency_us"} {
			if want := fmt.Sprintf("psi_engine_policy_arm_%s{arm=%q} ", series, arm.Name); !strings.Contains(metrics, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
}

// TestPerRequestTimeoutMapsToKill verifies ?timeout_ms lands on the
// engine's budget: the response is a killed result, not an opaque error,
// and killed results are not cached.
func TestPerRequestTimeoutMapsToKill(t *testing.T) {
	eng, q := slowFixture(t)
	// A DefaultLimit this high raises the request-limit cap so the huge
	// ?limit below is admitted rather than rejected as absurd.
	srv := New(eng, Options{CacheSize: 8, DefaultLimit: 1_000_000})
	ts := serve(t, srv)

	// The engine has no budget, so the deadline surfaces as 504 here.
	resp, data := postQuery(t, ts.URL+"/query?timeout_ms=30&limit=10000000", graphText(t, q))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 on a budget-less engine (body %.120s)", resp.StatusCode, data)
	}

	// With a budget, the same overrun is a kill: HTTP 200, killed=true.
	bsrv := New(nfvEngine(t, eng.Graph(), psi.EngineOptions{Timeout: 30 * time.Millisecond}), Options{CacheSize: 8, DefaultLimit: 1_000_000})
	resp, data = postQuery(t, serve(t, bsrv).URL+"/query?limit=10000000", graphText(t, q))
	if resp.StatusCode != http.StatusOK || !decode[QueryResponse](t, data).Killed {
		t.Fatalf("budgeted status = %d (body %.120s), want 200 and killed", resp.StatusCode, data)
	}
	if got := bsrv.cache.counters().Entries; got != 0 {
		t.Errorf("killed result was cached (%d entries)", got)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
