package server

// Tests for the online-mutation endpoints and the epoch-aware serving
// state: ingest/remove/replace over HTTP with correct status mapping,
// epoch-keyed result-cache invalidation (the regression the cache key's
// epoch prefix exists for), and the building→ready /healthz transition.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
)

// mutableFixture builds a small mutable FTV engine (two shards) plus a
// query with a non-empty answer contained in ds[0].
func mutableFixture(t *testing.T) (*psi.Engine, *psi.Graph, []*psi.Graph) {
	return ppiFixture(t, psi.EngineOptions{Mutable: true, Shards: 2})
}

func do(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, data.Bytes()
}

// call is do, failing the test unless the reply's status is want.
func call(t *testing.T, method, url string, body []byte, want int) []byte {
	t.Helper()
	resp, data := do(t, method, url, body)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d (body %.120s), want %d", method, url, resp.StatusCode, data, want)
	}
	return data
}

func queryIDs(t *testing.T, ts *httptest.Server, body []byte) ([]int, QueryResponse) {
	t.Helper()
	resp, data := postQuery(t, ts.URL+"/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %s", resp.StatusCode, data)
	}
	qr := decode[QueryResponse](t, data)
	return qr.GraphIDs, qr
}

// TestMutationEndpoints drives the full ingest/replace/remove cycle over
// HTTP and pins the status mapping, the epoch progression, and that every
// mutation is visible to the very next query.
func TestMutationEndpoints(t *testing.T) {
	eng, q, ds := mutableFixture(t)
	srv := New(eng, Options{CacheSize: -1})
	ts := serve(t, srv)
	qbody := graphText(t, q)

	if hz := decode[healthResponse](t, call(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK)); hz.Status != "ok" || hz.Epoch != 1 {
		t.Fatalf("healthz = %+v, want ok epoch 1", hz)
	}

	baseline, _ := queryIDs(t, ts, qbody)
	if len(baseline) == 0 {
		t.Fatal("fixture query has an empty answer; pick a different seed")
	}

	// Ingest a copy of ds[0]: q is a subgraph of it by construction, so the
	// answer must grow by exactly the new dense ID (the largest).
	ing := decode[IngestResponse](t, call(t, http.MethodPost, ts.URL+"/graphs", graphText(t, ds[0]), http.StatusOK))
	if len(ing.Handles) != 1 || ing.Epoch != 2 {
		t.Fatalf("ingest = %+v, want 1 handle at epoch 2", ing)
	}
	h := ing.Handles[0]
	grown, _ := queryIDs(t, ts, qbody)
	if fmt.Sprint(grown) != fmt.Sprint(append(append([]int{}, baseline...), len(ds))) {
		t.Fatalf("answer after ingest = %v, want %v + [%d]", grown, baseline, len(ds))
	}

	// Replace the copy with a single-vertex graph: the answer shrinks back.
	solo := graph.MustNew("solo", []graph.Label{0}, nil)
	graphURL := fmt.Sprintf("%s/graphs/%d", ts.URL, h)
	if mut := decode[MutateResponse](t, call(t, http.MethodPut, graphURL, graphText(t, solo), http.StatusOK)); mut.Handle != h || mut.Epoch != 3 {
		t.Fatalf("replace = %+v, want handle %d at epoch 3", mut, h)
	}
	if ids, _ := queryIDs(t, ts, qbody); fmt.Sprint(ids) != fmt.Sprint(baseline) {
		t.Fatalf("answer after replace = %v, want %v", ids, baseline)
	}

	// Remove it; a second remove of the same handle is the client's 404.
	if mut := decode[MutateResponse](t, call(t, http.MethodDelete, graphURL, nil, http.StatusOK)); mut.Epoch != 4 {
		t.Fatalf("remove = %+v, want epoch 4", mut)
	}
	if ids, _ := queryIDs(t, ts, qbody); fmt.Sprint(ids) != fmt.Sprint(baseline) {
		t.Fatalf("answer after remove = %v, want %v", ids, baseline)
	}
	call(t, http.MethodDelete, graphURL, nil, http.StatusNotFound)

	// Malformed requests: a bad handle, an empty ingest, a two-graph replace.
	call(t, http.MethodDelete, ts.URL+"/graphs/abc", nil, http.StatusBadRequest)
	call(t, http.MethodPost, ts.URL+"/graphs", nil, http.StatusBadRequest)
	call(t, http.MethodPut, ts.URL+"/graphs/1", append(graphText(t, solo), graphText(t, solo)...), http.StatusBadRequest)

	// Observability: /stats and /metrics carry the epoch and the mutation
	// counters.
	st := srv.Stats()
	if !st.Ready || !st.Mutable || st.Epoch != 4 || st.Engine.GraphsAdded != 1 || st.Engine.GraphsRemoved != 1 || st.Engine.GraphsReplaced != 1 {
		t.Errorf("stats ready=%v mutable=%v epoch=%d, counters %+v; want true/true/4 and 1/1/1", st.Ready, st.Mutable, st.Epoch, st.Engine)
	}
	_, data := do(t, http.MethodGet, ts.URL+"/metrics", nil)
	for _, want := range []string{
		"psi_server_ready 1",
		"psi_engine_dataset_epoch 4",
		"psi_engine_graphs_added_total 1",
		"psi_engine_graphs_removed_total 1",
		"psi_engine_graphs_replaced_total 1",
		"psi_engine_compactions_total 0",
	} {
		if !strings.Contains(string(data), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMutationRequiresMutableEngine pins the 409 for mutation requests
// against a server whose engine was built without EngineOptions.Mutable.
func TestMutationRequiresMutableEngine(t *testing.T) {
	eng, q := datasetFixture(t)
	ts := serve(t, New(eng, Options{}))
	call(t, http.MethodPost, ts.URL+"/graphs", graphText(t, q), http.StatusConflict)
	call(t, http.MethodDelete, ts.URL+"/graphs/1", nil, http.StatusConflict)
}

// TestEpochKeyedCache is the mutation-vs-cache regression test: a cached
// answer must never survive a mutation, because the cache key carries the
// dataset epoch. The same key feeds the flight group, so coalescing cannot
// cross a mutation either.
func TestEpochKeyedCache(t *testing.T) {
	eng, q, ds := mutableFixture(t)
	srv := New(eng, Options{CacheSize: 8})
	ts := serve(t, srv)
	qbody := graphText(t, q)

	before, first := queryIDs(t, ts, qbody)
	if first.Cached {
		t.Fatal("first query already cached")
	}
	if _, second := queryIDs(t, ts, qbody); !second.Cached {
		t.Fatal("identical repeat not served from cache")
	}

	ing := decode[IngestResponse](t, call(t, http.MethodPost, ts.URL+"/graphs", graphText(t, ds[0]), http.StatusOK))

	// The very next identical query must re-execute (the old entry's key
	// carries the old epoch) and see the ingested graph.
	if after, third := queryIDs(t, ts, qbody); third.Cached || fmt.Sprint(after) != fmt.Sprint(append(append([]int{}, before...), len(ds))) {
		t.Fatalf("answer after ingest = %v (cached %v), want %v + [%d] afresh", after, third.Cached, before, len(ds))
	}
	if _, fourth := queryIDs(t, ts, qbody); !fourth.Cached {
		t.Fatal("repeat within the new epoch not served from cache")
	}

	// And the same again across a removal.
	call(t, http.MethodDelete, fmt.Sprintf("%s/graphs/%d", ts.URL, ing.Handles[0]), nil, http.StatusOK)
	if final, fifth := queryIDs(t, ts, qbody); fifth.Cached || fmt.Sprint(final) != fmt.Sprint(before) {
		t.Fatalf("answer after removal = %v (cached %v), want %v afresh", final, fifth.Cached, before)
	}
}

// TestBuildingReadiness covers the NewBuilding→SetEngine lifecycle: while
// the engine is building, /healthz says so with 503, queries and mutations
// are refused, and /stats and /metrics still serve the admission layer.
func TestBuildingReadiness(t *testing.T) {
	srv := NewBuilding(Options{})
	ts := serve(t, srv)

	if hz := decode[healthResponse](t, call(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusServiceUnavailable)); hz.Status != "building" {
		t.Fatalf("healthz while building = %+v, want building", hz)
	}
	eng, q, _ := mutableFixture(t)
	qbody := graphText(t, q)
	call(t, http.MethodPost, ts.URL+"/query", qbody, http.StatusServiceUnavailable)
	call(t, http.MethodPost, ts.URL+"/graphs", qbody, http.StatusServiceUnavailable)
	metrics := string(call(t, http.MethodGet, ts.URL+"/metrics", nil, http.StatusOK))
	if srv.Stats().Ready || !strings.Contains(metrics, "psi_server_ready 0\n") || strings.Contains(metrics, "psi_engine_queries_total") {
		t.Errorf("while building: stats ready %v, metrics\n%s\nwant not ready, psi_server_ready 0 and no engine counters", srv.Stats().Ready, metrics)
	}

	srv.SetEngine(eng)
	if hz := decode[healthResponse](t, call(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK)); hz.Status != "ok" || hz.Epoch != 1 {
		t.Fatalf("healthz after SetEngine = %+v, want ok epoch 1", hz)
	}
	if ids, _ := queryIDs(t, ts, qbody); len(ids) == 0 {
		t.Error("query after SetEngine returned an empty answer")
	}
}
