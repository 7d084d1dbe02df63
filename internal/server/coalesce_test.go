package server

// Regression tests for in-flight query coalescing, run under -race by
// scripts/check.sh: a stampede of identical queries costs one engine
// execution and every client reads a byte-identical answer; a follower
// that disconnects never cancels the leader; killed answers are never
// shared; and a drained stampede leaks no goroutines.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// coalesceFixture builds a racing FTV engine and a server with the result
// cache off, so every answer observed in these tests comes from a live
// execution or a shared flight — never from a cache.
func coalesceFixture(t *testing.T, engOpts psi.EngineOptions, srvOpts Options) (*Server, *psi.Graph) {
	eng, q, _ := ppiFixture(t, engOpts)
	srvOpts.CacheSize = -1
	return New(eng, srvOpts), q
}

// streamLines splits an NDJSON body into result lines and the parsed
// summary line.
func streamLines(t *testing.T, data []byte) ([]byte, StreamSummary) {
	t.Helper()
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream too short: %q", data)
	}
	sum := decode[StreamSummary](t, lines[len(lines)-2])
	return bytes.Join(lines[:len(lines)-2], nil), sum
}

// waitWaiters polls until the flight has n parked followers.
func waitWaiters(t *testing.T, fl *cacheEntry, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fl.waiters.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("flight gathered %d waiters, want %d", fl.waiters.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdLeader makes the leader of srv's next flight wait for release; the
// flight it leads arrives on the returned channel.
func holdLeader(srv *Server, release <-chan struct{}) <-chan *cacheEntry {
	led := make(chan *cacheEntry, 1)
	srv.leaderHook = func(fl *cacheEntry) {
		led <- fl
		<-release
	}
	return led
}

// stampede posts body to url from n clients at once and returns each one's
// streamed result lines and summary.
func stampede(t *testing.T, url string, body []byte, n int) ([][]byte, []StreamSummary) {
	lines, sums := make([][]byte, n), make([]StreamSummary, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postQuery(t, url, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d body %s", i, resp.StatusCode, data)
				return
			}
			lines[i], sums[i] = streamLines(t, data)
		}(i)
	}
	wg.Wait()
	return lines, sums
}

// TestCoalesceCollapsesStampede is the acceptance test for the tentpole's
// coalescing half: 16 concurrent identical streamed queries execute once,
// and all 16 clients read byte-identical result lines. The leaderHook
// holds the leader until all 15 followers are parked, so the single
// execution is guaranteed, not a matter of timing.
func TestCoalesceCollapsesStampede(t *testing.T) {
	const clients = 16
	srv, q := coalesceFixture(t, psi.EngineOptions{}, Options{MaxInFlight: 2 * clients})
	srv.leaderHook = func(fl *cacheEntry) { waitWaiters(t, fl, clients-1) }
	ts := serve(t, srv)
	leakcheck.Check(t, 2)
	lines, sums := stampede(t, ts.URL+"/query?stream=1", graphText(t, q), clients)

	if n := srv.Engine().Counters().Queries; n != 1 {
		t.Errorf("%d identical queries cost %d engine executions, want 1", clients, n)
	}
	if n := srv.coalesced.Load(); n != clients-1 {
		t.Errorf("coalesced = %d, want %d", n, clients-1)
	}
	if n := srv.coalescedFallbacks.Load(); n != 0 {
		t.Errorf("coalescedFallbacks = %d, want 0", n)
	}
	if len(lines[0]) == 0 {
		t.Fatal("empty answer; pick a different fixture seed")
	}
	leaders, followers := 0, 0
	for i, sum := range sums {
		if !bytes.Equal(lines[i], lines[0]) {
			t.Errorf("client %d result lines differ:\ngot  %q\nwant %q", i, lines[i], lines[0])
		}
		if !sum.Done || sum.Killed || sum.Error != "" {
			t.Errorf("client %d summary = %+v", i, sum)
		}
		if sum.Found != sums[0].Found || sum.Winner != sums[0].Winner {
			t.Errorf("client %d summary %+v disagrees with %+v", i, sum, sums[0])
		}
		if sum.Coalesced {
			followers++
		} else {
			leaders++
		}
	}
	if leaders != 1 || followers != clients-1 {
		t.Errorf("leaders = %d, coalesced followers = %d, want 1 and %d", leaders, followers, clients-1)
	}

	// Drained stampede leaves no goroutines behind (idle keep-alive
	// connections are closed first so only real leaks remain).
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, func() bool { return srv.InFlight() == 0 })
}

// TestCoalesceCollectedFollower checks the non-streamed replay path: a
// collected follower shares the streamed leader's execution and is marked
// coalesced, with the same answer.
func TestCoalesceCollectedFollower(t *testing.T) {
	srv, q := coalesceFixture(t, psi.EngineOptions{}, Options{})
	release := make(chan struct{})
	led := holdLeader(srv, release)
	ts := serve(t, srv)
	body := graphText(t, q)

	// The streamed request goes first and is held as leader; the collected
	// request then parks on its flight.
	var (
		wg       sync.WaitGroup
		leader   []byte
		follower QueryResponse
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		lines, _ := stampede(t, ts.URL+"/query?stream=1", body, 1)
		leader = lines[0]
	}()
	fl := <-led
	go func() {
		defer wg.Done()
		follower = collect(t, ts.URL+"/query", body)
	}()
	waitWaiters(t, fl, 1)
	close(release)
	wg.Wait()

	if n := srv.Engine().Counters().Queries; n != 1 {
		t.Errorf("engine executions = %d, want 1", n)
	}
	if !follower.Coalesced || follower.Cached {
		t.Errorf("follower response = %+v, want coalesced and not cached", follower)
	}
	var want bytes.Buffer
	for _, id := range follower.GraphIDs {
		fmt.Fprintf(&want, "{\"graph_id\":%d}\n", id)
	}
	if !bytes.Equal(leader, want.Bytes()) {
		t.Errorf("leader stream %q != follower graph_ids %v", leader, follower.GraphIDs)
	}
}

// TestCoalesceFollowerCancelDoesNotKillLeader: a parked follower whose
// client disconnects unwinds with an error while the leader — and any
// other follower — is completely unaffected.
func TestCoalesceFollowerCancelDoesNotKillLeader(t *testing.T) {
	srv, q := coalesceFixture(t, psi.EngineOptions{}, Options{})
	release := make(chan struct{})
	led := holdLeader(srv, release)
	ts := serve(t, srv)
	body := graphText(t, q)

	// Leader in, held at the hook.
	var leaderLines [][]byte
	var leaderSums []StreamSummary
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		leaderLines, leaderSums = stampede(t, ts.URL+"/query?stream=1", body, 1)
	}()
	fl := <-led

	// Follower in, parked on the flight, then its client disconnects.
	cancelCtx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(cancelCtx, http.MethodPost, ts.URL+"/query?stream=1", bytes.NewReader(body))
		if err != nil {
			followerErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("cancelled follower got status %d", resp.StatusCode)
		}
		followerErr <- err
	}()
	waitWaiters(t, fl, 1)
	cancel()
	if err := <-followerErr; err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follower error = %v, want context.Canceled", err)
	}
	// Wait until the follower's handler has unwound — its admission slot is
	// back — so the leader's finish cannot race its cancellation.
	waitFor(t, func() bool { return srv.InFlight() == 1 })

	// The leader proceeds and answers in full.
	close(release)
	<-leaderDone
	if sum := leaderSums[0]; !sum.Done || sum.Killed || sum.Error != "" || len(leaderLines[0]) == 0 {
		t.Errorf("leader summary = %+v with %d result bytes; follower cancellation leaked into the leader",
			sum, len(leaderLines[0]))
	}
	if n := srv.Engine().Counters().Queries; n != 1 {
		t.Errorf("engine executions = %d, want 1", n)
	}
	if n := srv.coalesced.Load(); n != 0 {
		t.Errorf("coalesced = %d, want 0 (the only follower disconnected)", n)
	}
}

// TestCoalesceNeverSharesKilledAnswers: when the leader's execution is
// killed by the engine budget, its partial answer is not handed to the
// followers — each falls back to its own execution and reports its own
// kill.
func TestCoalesceNeverSharesKilledAnswers(t *testing.T) {
	const clients = 4
	srv, q := coalesceFixture(t, psi.EngineOptions{Timeout: time.Nanosecond}, Options{})
	srv.leaderHook = func(fl *cacheEntry) { waitWaiters(t, fl, clients-1) }
	ts := serve(t, srv)
	_, sums := stampede(t, ts.URL+"/query?stream=1", graphText(t, q), clients)
	for i, sum := range sums {
		if sum.Coalesced || !sum.Killed {
			t.Errorf("client %d summary = %+v, want killed and not coalesced from a killed execution", i, sum)
		}
	}
	if n := srv.Engine().Counters().Queries; n != clients {
		t.Errorf("engine executions = %d, want %d (killed answers force independent runs)", n, clients)
	}
	if n := srv.coalescedFallbacks.Load(); n != clients-1 {
		t.Errorf("coalescedFallbacks = %d, want %d", n, clients-1)
	}
	if n := srv.coalesced.Load(); n != 0 {
		t.Errorf("coalesced = %d, want 0", n)
	}
}

// TestCoalesceOptOuts: ?cache=0 requests never share executions.
func TestCoalesceOptOuts(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		url  string
	}{
		{"cache_zero_request", Options{}, "/query?stream=1&cache=0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, q := coalesceFixture(t, psi.EngineOptions{}, tc.opts)
			srv.leaderHook = func(fl *cacheEntry) {
				t.Error("opted-out request opened a flight")
			}
			gate := make(chan struct{})
			var admitted sync.WaitGroup
			admitted.Add(2)
			srv.admittedHook = func(ctx context.Context) {
				admitted.Done()
				<-gate
			}
			go func() {
				admitted.Wait()
				close(gate)
			}()
			ts := serve(t, srv)
			body := graphText(t, q)

			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, data := postQuery(t, ts.URL+tc.url, body)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("status %d body %s", resp.StatusCode, data)
					}
				}()
			}
			wg.Wait()
			if n := srv.Engine().Counters().Queries; n != 2 {
				t.Errorf("engine executions = %d, want 2 (no sharing)", n)
			}
			if n := srv.coalesced.Load(); n != 0 {
				t.Errorf("coalesced = %d, want 0", n)
			}
		})
	}
}

// memoryFixture builds a dataset engine and a server whose result cache
// remembers at most one answer, plus two queries under different keys.
func memoryFixture(t *testing.T, engOpts psi.EngineOptions) (srv *Server, a, b *psi.Graph) {
	engOpts.Indexes = []string{"ftv"}
	eng, a, ds := ppiFixture(t, engOpts)
	srv, b = New(eng, Options{CacheSize: 1}), psi.ExtractQuery(ds[1], 5, 7)
	if srv.cacheKey(eng, a, 0) == srv.cacheKey(eng, b, 0) {
		t.Fatal("fixture queries share a key")
	}
	return srv, a, b
}

// collect posts a collected query and decodes the reply.
func collect(t *testing.T, url string, body []byte) QueryResponse {
	t.Helper()
	resp, data := postQuery(t, url, body)
	var qr QueryResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &qr) != nil {
		t.Errorf("status %d body %s", resp.StatusCode, data)
	}
	return qr
}

// TestMemoryFlightNeverEvictsRemembered: in the one memory, an in-flight
// entry is neither evicted nor counted. With room for one answer, a flight
// on key A held at its leader leaves B's remembered answer in place (a
// repeat of B is a hit), A stays out of result_cache.entries, and A's
// follower is still answered coalesced; once A finishes it is remembered
// and evicts B.
func TestMemoryFlightNeverEvictsRemembered(t *testing.T) {
	srv, a, b := memoryFixture(t, psi.EngineOptions{})
	keyA := srv.cacheKey(srv.Engine(), a, 0)
	var held atomic.Bool
	release := make(chan struct{})
	led := make(chan *cacheEntry, 1)
	srv.leaderHook = func(e *cacheEntry) {
		if e.key == keyA && held.CompareAndSwap(false, true) {
			led <- e
			<-release
		}
	}
	ts := serve(t, srv)
	bodyA, bodyB := graphText(t, a), graphText(t, b)

	if r := collect(t, ts.URL+"/query", bodyB); r.Cached {
		t.Fatalf("first B reply = %+v, want a fresh execution", r)
	}
	var wg sync.WaitGroup
	var leader, follower QueryResponse
	wg.Add(2)
	go func() { defer wg.Done(); leader = collect(t, ts.URL+"/query", bodyA) }()
	e := <-led
	go func() { defer wg.Done(); follower = collect(t, ts.URL+"/query", bodyA) }()
	waitWaiters(t, e, 1)

	if got := srv.cache.counters().Entries; got != 1 {
		t.Errorf("entries = %d with A in flight, want 1 (B alone)", got)
	}
	if r := collect(t, ts.URL+"/query", bodyB); !r.Cached {
		t.Errorf("B beside A's flight = %+v, want cached", r)
	}
	close(release)
	wg.Wait()
	if leader.Coalesced || leader.Cached || !follower.Coalesced {
		t.Errorf("A's leader %+v and follower %+v, want a fresh leader and a coalesced follower", leader, follower)
	}
	if fmt.Sprint(follower.GraphIDs) != fmt.Sprint(leader.GraphIDs) {
		t.Errorf("follower answered %v, leader %v", follower.GraphIDs, leader.GraphIDs)
	}
	if cc := srv.cache.counters(); cc.Entries != 1 {
		t.Errorf("counters after A finished = %+v, want 1 entry", cc)
	}
	if r := collect(t, ts.URL+"/query", bodyA); !r.Cached {
		t.Errorf("A after its flight = %+v, want cached", r)
	}
	if r := collect(t, ts.URL+"/query", bodyB); r.Cached {
		t.Errorf("B after A was remembered = %+v, want evicted and run afresh", r)
	}
}

// TestMemoryRemembersFallbackAnswer: a follower whose leader had nothing
// shareable — here the leader's own ?timeout_ms killed it — runs the query
// itself, and its complete answer is remembered: the next identical request
// is a hit.
func TestMemoryRemembersFallbackAnswer(t *testing.T) {
	srv, q, _ := memoryFixture(t, psi.EngineOptions{Timeout: time.Minute})
	var first atomic.Bool
	srv.leaderHook = func(e *cacheEntry) {
		if first.CompareAndSwap(false, true) {
			waitWaiters(t, e, 1)
		}
	}
	ts := serve(t, srv)
	body := graphText(t, q)

	var wg sync.WaitGroup
	var leader QueryResponse
	wg.Add(1)
	go func() { defer wg.Done(); leader = collect(t, ts.URL+"/query?timeout_ms=1", body) }()
	waitFor(t, first.Load)
	follower := collect(t, ts.URL+"/query", body)
	wg.Wait()
	if !leader.Killed {
		t.Fatalf("leader reply = %+v, want killed by its own timeout", leader)
	}
	if follower.Killed || follower.Coalesced || len(follower.GraphIDs) == 0 {
		t.Errorf("follower reply = %+v, want its own complete answer", follower)
	}
	if n := srv.coalescedFallbacks.Load(); n != 1 {
		t.Errorf("coalescedFallbacks = %d, want 1", n)
	}
	again := collect(t, ts.URL+"/query", body)
	if !again.Cached || fmt.Sprint(again.GraphIDs) != fmt.Sprint(follower.GraphIDs) {
		t.Errorf("repeat after the fallback = %+v, want cached %v", again, follower.GraphIDs)
	}
}

// TestCoalesceOnlyRemembersNothing: a negative CacheSize still coalesces
// (TestCoalesceCollapsesStampede) but remembers no answer, and /stats and
// /metrics carry no result cache.
func TestCoalesceOnlyRemembersNothing(t *testing.T) {
	srv, q := coalesceFixture(t, psi.EngineOptions{}, Options{})
	ts := serve(t, srv)
	body := graphText(t, q)
	for i := 0; i < 2; i++ {
		if r := collect(t, ts.URL+"/query", body); r.Cached {
			t.Errorf("query %d = %+v, want a fresh execution", i, r)
		}
	}
	st, metrics := getStatsAndMetrics(t, ts.URL)
	if st.ResultCache != nil || strings.Contains(metrics, "psi_server_cache_") {
		t.Errorf("stats result_cache = %+v, metrics:\n%s\nwant neither", st.ResultCache, metrics)
	}
}
