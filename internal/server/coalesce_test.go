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
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// coalesceFixture builds a racing FTV engine and a server with the result
// cache off, so every answer observed in these tests comes from a live
// execution or a shared flight — never from a cache.
func coalesceFixture(t *testing.T, engOpts psi.EngineOptions, srvOpts Options) (*Server, *psi.Graph) {
	t.Helper()
	ds := psi.GeneratePPI(psi.Tiny, 1)
	if len(engOpts.Indexes) == 0 {
		engOpts.Indexes = []string{"ftv"}
	}
	eng, err := psi.NewDatasetEngine(ds, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srvOpts.CacheSize = -1
	return New(eng, srvOpts), psi.ExtractQuery(ds[0], 4, 7)
}

// streamLines splits an NDJSON body into result lines and the parsed
// summary line.
func streamLines(t *testing.T, data []byte) ([]byte, StreamSummary) {
	t.Helper()
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream too short: %q", data)
	}
	var sum StreamSummary
	if err := json.Unmarshal(lines[len(lines)-2], &sum); err != nil {
		t.Fatalf("summary line: %v (%q)", err, lines[len(lines)-2])
	}
	return bytes.Join(lines[:len(lines)-2], nil), sum
}

// waitWaiters polls until the flight has n parked followers.
func waitWaiters(t *testing.T, fl *flight, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fl.waiters.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("flight gathered %d waiters, want %d", fl.waiters.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalesceCollapsesStampede is the acceptance test for the tentpole's
// coalescing half: 16 concurrent identical streamed queries execute once,
// and all 16 clients read byte-identical result lines. The leaderHook
// holds the leader until all 15 followers are parked, so the single
// execution is guaranteed, not a matter of timing.
func TestCoalesceCollapsesStampede(t *testing.T) {
	const clients = 16
	srv, q := coalesceFixture(t, psi.EngineOptions{}, Options{MaxInFlight: 2 * clients})
	srv.leaderHook = func(fl *flight) { waitWaiters(t, fl, clients-1) }
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	body := graphText(t, q)

	leakcheck.Check(t, 2)
	type reply struct {
		lines []byte
		sum   StreamSummary
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postQuery(t, ts.URL+"/query?stream=1", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d body %s", i, resp.StatusCode, data)
				return
			}
			lines, sum := streamLines(t, data)
			replies[i] = reply{lines: lines, sum: sum}
		}(i)
	}
	wg.Wait()

	if n := srv.Engine().Counters().Queries; n != 1 {
		t.Errorf("%d identical queries cost %d engine executions, want 1", clients, n)
	}
	if n := srv.coalesced.Load(); n != clients-1 {
		t.Errorf("coalesced = %d, want %d", n, clients-1)
	}
	if n := srv.coalescedFallbacks.Load(); n != 0 {
		t.Errorf("coalescedFallbacks = %d, want 0", n)
	}
	if len(replies[0].lines) == 0 {
		t.Fatal("empty answer; pick a different fixture seed")
	}
	leaders, followers := 0, 0
	for i, r := range replies {
		if !bytes.Equal(r.lines, replies[0].lines) {
			t.Errorf("client %d result lines differ:\ngot  %q\nwant %q", i, r.lines, replies[0].lines)
		}
		if !r.sum.Done || r.sum.Killed || r.sum.Error != "" {
			t.Errorf("client %d summary = %+v", i, r.sum)
		}
		if r.sum.Found != replies[0].sum.Found || r.sum.Winner != replies[0].sum.Winner {
			t.Errorf("client %d summary %+v disagrees with %+v", i, r.sum, replies[0].sum)
		}
		if r.sum.Coalesced {
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
	var flMu sync.Mutex
	var led *flight
	srv.leaderHook = func(fl *flight) {
		flMu.Lock()
		led = fl
		flMu.Unlock()
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := graphText(t, q)

	// The streamed request goes first and is held as leader; the collected
	// request then parks on its flight.
	var (
		wg       sync.WaitGroup
		leader   []byte
		follower QueryResponse
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := postQuery(t, ts.URL+"/query?stream=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("leader status %d body %s", resp.StatusCode, data)
		}
		leader, _ = streamLines(t, data)
	}()
	waitFor(t, func() bool {
		flMu.Lock()
		defer flMu.Unlock()
		return led != nil
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := postQuery(t, ts.URL+"/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("follower status %d body %s", resp.StatusCode, data)
			return
		}
		if err := json.Unmarshal(data, &follower); err != nil {
			t.Errorf("follower body: %v (%q)", err, data)
		}
	}()
	flMu.Lock()
	fl := led
	flMu.Unlock()
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
	var flMu sync.Mutex
	var led *flight
	srv.leaderHook = func(fl *flight) {
		flMu.Lock()
		led = fl
		flMu.Unlock()
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := graphText(t, q)

	// Leader in, held at the hook.
	var wg sync.WaitGroup
	var leaderLines []byte
	var leaderSum StreamSummary
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := postQuery(t, ts.URL+"/query?stream=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("leader status %d body %s", resp.StatusCode, data)
			return
		}
		leaderLines, leaderSum = streamLines(t, data)
	}()
	waitFor(t, func() bool {
		flMu.Lock()
		defer flMu.Unlock()
		return led != nil
	})

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
	flMu.Lock()
	fl := led
	flMu.Unlock()
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
	wg.Wait()
	if !leaderSum.Done || leaderSum.Killed || leaderSum.Error != "" || len(leaderLines) == 0 {
		t.Errorf("leader summary = %+v with %d result bytes; follower cancellation leaked into the leader",
			leaderSum, len(leaderLines))
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
	srv.leaderHook = func(fl *flight) { waitWaiters(t, fl, clients-1) }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := graphText(t, q)

	sums := make([]StreamSummary, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postQuery(t, ts.URL+"/query?stream=1", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d body %s", i, resp.StatusCode, data)
				return
			}
			_, sums[i] = streamLines(t, data)
		}(i)
	}
	wg.Wait()

	for i, sum := range sums {
		if sum.Coalesced {
			t.Errorf("client %d received a coalesced answer from a killed execution: %+v", i, sum)
		}
		if !sum.Killed {
			t.Errorf("client %d summary = %+v, want killed", i, sum)
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

// TestCoalesceOptOuts: NoCoalesce servers and ?cache=0 requests never
// share executions.
func TestCoalesceOptOuts(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		url  string
	}{
		{"no_coalesce_option", Options{NoCoalesce: true}, "/query?stream=1"},
		{"cache_zero_request", Options{}, "/query?stream=1&cache=0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, q := coalesceFixture(t, psi.EngineOptions{}, tc.opts)
			srv.leaderHook = func(fl *flight) {
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
			ts := httptest.NewServer(srv)
			defer ts.Close()
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
