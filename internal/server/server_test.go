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
	"strings"
	"sync"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// datasetFixture builds a small FTV engine (flat path index, no engine
// cache, so server-cache behavior is observable in isolation) plus a query
// with a non-empty answer.
func datasetFixture(t *testing.T) (*psi.Engine, *psi.Graph) {
	t.Helper()
	ds := psi.GeneratePPI(psi.Tiny, 1)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	q := psi.ExtractQuery(ds[0], 4, 7)
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
// collected answer serializes to, line for line.
func TestStreamMatchesExecuteBytes(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	direct, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.GraphIDs) == 0 {
		t.Fatal("fixture query has an empty answer; pick a different seed")
	}
	var want bytes.Buffer
	for _, id := range direct.GraphIDs {
		fmt.Fprintf(&want, "{\"graph_id\":%d}\n", id)
	}

	resp, data := postQuery(t, ts.URL+"/query?stream=1&cache=0", graphText(t, q))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, body %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream too short: %q", data)
	}
	got := bytes.Join(lines[:len(lines)-2], nil) // all but the summary line
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("streamed NDJSON differs from Execute serialization:\ngot  %q\nwant %q", got, want.Bytes())
	}
	var sum StreamSummary
	if err := json.Unmarshal(lines[len(lines)-2], &sum); err != nil {
		t.Fatalf("summary line: %v (%q)", err, lines[len(lines)-2])
	}
	if !sum.Done || sum.Found != len(direct.GraphIDs) || sum.Killed || sum.Error != "" {
		t.Errorf("summary = %+v, want done with found=%d", sum, len(direct.GraphIDs))
	}
	if sum.Winner == "" {
		t.Error("summary missing winner provenance")
	}
}

// TestCollectedQueryAndCache verifies the JSON response path and that the
// second identical query is served from the shared result cache, in both
// response modes.
func TestCollectedQueryAndCache(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{CacheSize: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	direct, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := graphText(t, q)
	resp, data := postQuery(t, ts.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var first QueryResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || fmt.Sprint(first.GraphIDs) != fmt.Sprint(direct.GraphIDs) {
		t.Fatalf("first answer = %+v, want uncached %v", first, direct.GraphIDs)
	}
	if first.Found != len(direct.GraphIDs) {
		t.Errorf("collected FTV found = %d, want %d", first.Found, len(direct.GraphIDs))
	}

	_, data = postQuery(t, ts.URL+"/query", body)
	var second QueryResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical query was not served from cache")
	}
	if fmt.Sprint(second.GraphIDs) != fmt.Sprint(direct.GraphIDs) {
		t.Errorf("cached answer %v != direct %v", second.GraphIDs, direct.GraphIDs)
	}
	// A cache hit must be indistinguishable from a fresh execution apart
	// from the cached marker: same kind, same winner, same found.
	if second.Kind != first.Kind || second.Winner != first.Winner || second.Found != first.Found {
		t.Errorf("cached reply %+v disagrees with fresh reply %+v", second, first)
	}

	// Streamed replay from the same cache entry.
	resp, data = postQuery(t, ts.URL+"/query?stream=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached stream status = %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var sum StreamSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Cached || sum.Found != len(direct.GraphIDs) || len(lines)-1 != len(direct.GraphIDs) {
		t.Errorf("cached stream: %d id lines, summary %+v; want %d cached ids", len(lines)-1, sum, len(direct.GraphIDs))
	}

	if cc := srv.cache.counters(); cc.Hits != 2 || cc.Entries != 1 {
		t.Errorf("cache counters = %+v, want 2 hits over 1 entry", cc)
	}
}

// TestAdmissionLimitRejectsOverflow holds MaxInFlight requests open and
// verifies the next one is rejected immediately with 429 — then admitted
// again once a slot frees.
func TestAdmissionLimitRejectsOverflow(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{MaxInFlight: 2})
	gate := make(chan struct{})
	srv.admittedHook = func(ctx context.Context) { <-gate }
	ts := httptest.NewServer(srv)
	defer ts.Close()

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
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	q := psi.MustNewGraph("path5", []psi.Label{0, 0, 0, 0, 0},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	return eng, q
}

// TestClientDisconnectCancelsQuery reads one streamed line, drops the
// connection, and verifies the in-flight slot is released and no goroutines
// leak — i.e. the disconnect cancelled the underlying race.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	eng, q := slowFixture(t)
	srv := New(eng, Options{CacheSize: -1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

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
	ts := httptest.NewServer(srv)
	defer ts.Close()

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
	if out.code != http.StatusOK {
		t.Fatalf("in-flight query dropped during drain: status %d", out.code)
	}
	lines := strings.Split(strings.TrimSuffix(string(out.data), "\n"), "\n")
	var sum StreamSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("drained response has no summary line: %v (%q)", err, out.data)
	}
	if !sum.Done {
		t.Errorf("drained response summary = %+v, want done", sum)
	}
}

// TestDrainDeadlineCancelsStragglers verifies the forced path: a straggler
// held past the drain deadline is cancelled through its context, Shutdown
// returns the deadline error, and the straggler still gets a response.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	eng, q := slowFixture(t)
	srv := New(eng, Options{CacheSize: -1, DefaultLimit: 1_000_000})
	ts := httptest.NewServer(srv)
	defer ts.Close()

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
	ts := httptest.NewServer(srv)
	defer ts.Close()

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
	ts := httptest.NewServer(srv)
	defer ts.Close()

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

// getStatsAndMetrics reads both observability endpoints of a test server.
func getStatsAndMetrics(t *testing.T, url string) (StatsResponse, string) {
	t.Helper()
	_, data := do(t, http.MethodGet, url+"/stats", nil)
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("stats decode: %v (%s)", err, data)
	}
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
	ts := httptest.NewServer(srv)
	defer ts.Close()

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
	// engine: one race per query class trains the bandit, the rest run solo.
	ds := psi.GeneratePPI(psi.Tiny, 1)
	kinds := []string{"ftv", "grapes", "ggsx"}
	urls := map[string]string{}
	for _, policy := range []string{psi.IndexAuto, psi.IndexRace} {
		peng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: kinds, IndexPolicy: policy, AutoMinSamples: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer peng.Close()
		pts := httptest.NewServer(New(peng, Options{CacheSize: -1}))
		defer pts.Close()
		urls[policy] = pts.URL
	}
	for pass := 0; pass < 3; pass++ {
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
	if st.IndexPolicy != psi.IndexAuto || st.Policy == nil || len(st.Policy.Arms) != len(kinds) {
		t.Fatalf("stats policy = %q %+v, want auto with one arm per index", st.IndexPolicy, st.Policy)
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
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The engine has no budget, so the deadline surfaces as 504 here.
	resp, data := postQuery(t, ts.URL+"/query?timeout_ms=30&limit=10000000", graphText(t, q))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 on a budget-less engine (body %.120s)", resp.StatusCode, data)
	}

	// With a budget, the same overrun is a kill: HTTP 200, killed=true.
	beng, err := psi.NewEngine(eng.Graph(), psi.EngineOptions{Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer beng.Close()
	bsrv := New(beng, Options{CacheSize: 8, DefaultLimit: 1_000_000})
	bts := httptest.NewServer(bsrv)
	defer bts.Close()
	resp, data = postQuery(t, bts.URL+"/query?limit=10000000", graphText(t, q))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted status = %d, want 200 (body %.120s)", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Killed {
		t.Errorf("response = %+v, want killed", qr)
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
