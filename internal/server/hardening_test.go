package server

// Edge-case tests for the request-envelope validation, the derived
// Retry-After hint, and the POST /snapshot endpoint.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

// TestQueryParamValidation table-tests the ?limit / ?timeout_ms edges: a
// negative or absurd value is a 400 up front, never a silent clamp.
func TestQueryParamValidation(t *testing.T) {
	eng, q := datasetFixture(t)
	srv := New(eng, Options{}) // maxLimit 10000, maxTimeout 24h
	ts := httptest.NewServer(srv)
	defer ts.Close()
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
	ts := httptest.NewServer(srv)
	defer ts.Close()
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
	srv := NewBuilding(Options{})
	if got := srv.retryAfterSeconds(); got != 1 {
		t.Errorf("cold retryAfterSeconds = %d, want the floor 1", got)
	}
	srv.observeRequest(5 * time.Second)
	if got := srv.retryAfterSeconds(); got != 5 {
		t.Errorf("after one 5s request, retryAfterSeconds = %d, want 5", got)
	}
	// Sub-second requests pull the estimate back down toward the floor.
	for i := 0; i < 64; i++ {
		srv.observeRequest(10 * time.Millisecond)
	}
	if got := srv.retryAfterSeconds(); got != 1 {
		t.Errorf("after fast requests, retryAfterSeconds = %d, want 1", got)
	}
	// Pathologically slow requests saturate at the cap.
	for i := 0; i < 64; i++ {
		srv.observeRequest(10 * time.Minute)
	}
	if got := srv.retryAfterSeconds(); got != maxRetryAfterSeconds {
		t.Errorf("after slow requests, retryAfterSeconds = %d, want the %d cap", got, maxRetryAfterSeconds)
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
	ts := httptest.NewServer(srv)
	defer ts.Close()
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

	t.Run("unconfigured", func(t *testing.T) {
		srv := New(eng, Options{})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, data := postQuery(t, ts.URL+"/snapshot", nil)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("status = %d, want 409 (body %.120s)", resp.StatusCode, data)
		}
	})

	path := filepath.Join(t.TempDir(), "srv.psisnap")

	t.Run("building", func(t *testing.T) {
		srv := NewBuilding(Options{SnapshotPath: path})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, data := postQuery(t, ts.URL+"/snapshot", nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (body %.120s)", resp.StatusCode, data)
		}
	})

	t.Run("save and cold-start", func(t *testing.T) {
		srv := New(eng, Options{SnapshotPath: path})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		resp, data := postQuery(t, ts.URL+"/snapshot", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200 (body %.120s)", resp.StatusCode, data)
		}
		var sr SnapshotResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Path != path {
			t.Errorf("response path = %q, want %q", sr.Path, path)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("snapshot file missing: %v", err)
		}

		cold, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: path})
		if err != nil {
			t.Fatalf("cold-start from server snapshot: %v", err)
		}
		defer cold.Close()
		cts := httptest.NewServer(New(cold, Options{}))
		defer cts.Close()

		_, live := postQuery(t, ts.URL+"/query?cache=0", body)
		_, restored := postQuery(t, cts.URL+"/query?cache=0", body)
		var lr, rr QueryResponse
		if err := json.Unmarshal(live, &lr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(restored, &rr); err != nil {
			t.Fatal(err)
		}
		if lr.Found != rr.Found || len(lr.GraphIDs) != len(rr.GraphIDs) {
			t.Errorf("cold-start answer %+v != live answer %+v", rr, lr)
		}
		for i := range lr.GraphIDs {
			if lr.GraphIDs[i] != rr.GraphIDs[i] {
				t.Errorf("graph id %d: cold %d != live %d", i, rr.GraphIDs[i], lr.GraphIDs[i])
				break
			}
		}
	})
}
