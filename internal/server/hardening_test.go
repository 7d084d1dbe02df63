package server

// Edge-case tests for the request-envelope validation, the derived
// Retry-After hint, and the POST /snapshot endpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

// TestQueryParamValidation table-tests the ?limit / ?timeout_ms edges: a
// negative or absurd value is a 400 up front, never a silent clamp.
func TestQueryParamValidation(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{}) // maxLimit 10000, maxTimeout 24h
	ts := serve(t, srv)
	body := graphText(t, q)

	huge := strconv.FormatInt(1<<40, 10)
	cases := []struct {
		name  string
		query string
		want  int
	}{
		{"no params", "", http.StatusOK},
		{"limit zero means decision", "limit=0", http.StatusOK},
		{"limit at cap", "limit=10000", http.StatusOK},
		{"limit negative", "limit=-1", http.StatusBadRequest},
		{"limit just past cap", "limit=10001", http.StatusBadRequest},
		{"limit 1<<40", "limit=" + huge, http.StatusBadRequest},
		{"limit overflows int64", "limit=99999999999999999999", http.StatusBadRequest},
		{"limit not a number", "limit=ten", http.StatusBadRequest},
		{"timeout zero means server default", "timeout_ms=0", http.StatusOK},
		{"timeout in range", "timeout_ms=5000", http.StatusOK},
		{"timeout negative", "timeout_ms=-1", http.StatusBadRequest},
		{"timeout 1<<40", "timeout_ms=" + huge, http.StatusBadRequest},
		{"timeout not a number", "timeout_ms=soon", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := ts.URL + "/query"
			if tc.query != "" {
				url += "?" + tc.query
			}
			resp, data := postQuery(t, url, body)
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (body %.120s)", resp.StatusCode, tc.want, data)
			}
			if tc.want == http.StatusBadRequest {
				var er errorResponse
				if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
					t.Errorf("400 without a JSON error body: %q", data)
				}
			}
		})
	}
}

// TestQueryParamCapsTrackConfig verifies the caps scale with the server's
// configuration instead of being absolute constants: a raised DefaultLimit
// admits proportionally larger limits, and a configured RequestTimeout
// tightens the timeout ceiling to ten times itself.
func TestQueryParamCapsTrackConfig(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{DefaultLimit: 50000, RequestTimeout: 100 * time.Millisecond})
	ts := serve(t, srv)
	body := graphText(t, q)

	cases := []struct {
		query string
		want  int
	}{
		{"limit=500000", http.StatusOK},         // 10 × DefaultLimit
		{"limit=500001", http.StatusBadRequest}, // one past
		{"timeout_ms=1000", http.StatusOK},      // 10 × RequestTimeout
		{"timeout_ms=1001", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postQuery(t, ts.URL+"/query?"+tc.query, body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (body %.120s)", tc.query, resp.StatusCode, tc.want, data)
		}
	}
}

// TestRetryAfterDerivation exercises the EWMA → Retry-After pipeline: the
// cold-start floor, tracking of observed durations, and the 30s cap.
func TestRetryAfterDerivation(t *testing.T) {
	// Cold, then after one 5s request, after 64 sub-second ones (back down
	// to the floor) and after 64 pathologically slow ones (at the cap).
	srv := NewBuilding(Options{})
	for _, step := range []struct {
		d    time.Duration
		n    int
		want int
	}{{0, 0, 1}, {5 * time.Second, 1, 5}, {10 * time.Millisecond, 64, 1}, {10 * time.Minute, 64, maxRetryAfterSeconds}} {
		for i := 0; i < step.n; i++ {
			srv.observeRequest(step.d)
		}
		if got := srv.retryAfterSeconds(); got != step.want {
			t.Errorf("after %d requests of %v, retryAfterSeconds = %d, want %d", step.n, step.d, got, step.want)
		}
	}
}

// TestRetryAfterHeaderOnCapacity verifies the 429 carries the derived value
// end to end — a parsable positive integer seconds hint on both the query
// and the mutation admission paths.
func TestRetryAfterHeaderOnCapacity(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{MaxInFlight: 1})
	gate := make(chan struct{})
	srv.admittedHook = func(ctx context.Context) { <-gate }
	ts := serve(t, srv)
	body := graphText(t, q)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postQuery(t, ts.URL+"/query", body)
	}()
	waitFor(t, func() bool { return srv.InFlight() == 1 })

	for _, target := range []string{"/query", "/graphs"} {
		resp, _ := postQuery(t, ts.URL+target, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("POST %s at capacity: status = %d, want 429", target, resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 || ra > maxRetryAfterSeconds {
			t.Errorf("POST %s Retry-After = %q, want an integer in [1,%d]",
				target, resp.Header.Get("Retry-After"), maxRetryAfterSeconds)
		}
	}
	close(gate)
	<-done
}

// TestSnapshotEndpoint covers POST /snapshot: 409 when unconfigured, 503
// while the engine is building, and on success a snapshot file a fresh
// engine cold-starts from with identical answers.
func TestSnapshotEndpoint(t *testing.T) {
	eng, q := datasetFixture(t)
	body := graphText(t, q)

	path := filepath.Join(t.TempDir(), "srv.psisnap")
	for _, tc := range []struct {
		name string
		srv  *Server
		want int
	}{
		{"unconfigured", New(eng, Options{}), http.StatusConflict},
		{"building", NewBuilding(Options{SnapshotPath: path}), http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if resp, data := postQuery(t, serve(t, tc.srv).URL+"/snapshot", nil); resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %.120s)", resp.StatusCode, tc.want, data)
			}
		})
	}

	t.Run("save and cold-start", func(t *testing.T) {
		srv := New(eng, Options{SnapshotPath: path})
		ts := serve(t, srv)

		resp, data := postQuery(t, ts.URL+"/snapshot", nil)
		if resp.StatusCode != http.StatusOK || decode[SnapshotResponse](t, data).Path != path {
			t.Fatalf("status = %d (body %.120s), want 200 naming %q", resp.StatusCode, data, path)
		}
		cold, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: path})
		if err != nil {
			t.Fatalf("cold-start from server snapshot: %v", err)
		}
		t.Cleanup(cold.Close)
		lr := collect(t, ts.URL+"/query?cache=0", body)
		if rr := collect(t, serve(t, New(cold, Options{})).URL+"/query?cache=0", body); lr.Found != rr.Found || !slices.Equal(lr.GraphIDs, rr.GraphIDs) {
			t.Errorf("cold-start answer %+v != live answer %+v", rr, lr)
		}
	})
}

// TestBodyLimit pins the request-body bound on both endpoints that read a
// graph body: a valid body of exactly maxBodyBytes (a graph padded with
// blanks, which the parser skips) is served, and one byte more is a 400
// naming the size, from POST /query and POST /graphs alike.
func TestBodyLimit(t *testing.T) {
	eng, q, _ := mutableFixture(t)
	ts := httptest.NewServer(New(eng, Options{CacheSize: -1}))
	defer ts.Close()
	text := graphText(t, q)
	padded := func(size int) []byte {
		return append(bytes.Clone(text), bytes.Repeat([]byte(" "), size-len(text))...)
	}
	for _, path := range []string{"/query", "/graphs"} {
		resp, data := do(t, http.MethodPost, ts.URL+path, padded(maxBodyBytes))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s at the limit: status %d (%.120s), want 200", path, resp.StatusCode, data)
		}
		resp, data = do(t, http.MethodPost, ts.URL+path, padded(maxBodyBytes+1))
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "too large") {
			t.Errorf("POST %s one byte over: status %d, body %.120s, want 400 naming the size", path, resp.StatusCode, data)
		}
	}
}
