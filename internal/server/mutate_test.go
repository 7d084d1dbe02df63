package server

// Tests for the online-mutation endpoints and the epoch-aware serving
// state: ingest/remove/replace over HTTP with correct status mapping,
// epoch-keyed result-cache invalidation (the regression the cache key's
// epoch prefix exists for), and the building→ready /healthz transition.

import (
	"bytes"
	"encoding/json"
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

	resp, data := do(t, http.MethodGet, ts.URL+"/healthz", nil)
	hz := decode[healthResponse](t, data)
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Epoch != 1 {
		t.Fatalf("healthz = %d %+v, want 200 ok epoch 1", resp.StatusCode, hz)
	}

	baseline, _ := queryIDs(t, ts, qbody)
	if len(baseline) == 0 {
		t.Fatal("fixture query has an empty answer; pick a different seed")
	}

	// Ingest a copy of ds[0]: q is a subgraph of it by construction, so the
	// answer must grow by exactly the new dense ID (the largest).
	resp, data = do(t, http.MethodPost, ts.URL+"/graphs", graphText(t, ds[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, data)
	}
	ing := decode[IngestResponse](t, data)
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
	resp, data = do(t, http.MethodPut, fmt.Sprintf("%s/graphs/%d", ts.URL, h), graphText(t, solo))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace status = %d, body %s", resp.StatusCode, data)
	}
	mut := decode[MutateResponse](t, data)
	if mut.Handle != h || mut.Epoch != 3 {
		t.Fatalf("replace = %+v, want handle %d at epoch 3", mut, h)
	}
	if ids, _ := queryIDs(t, ts, qbody); fmt.Sprint(ids) != fmt.Sprint(baseline) {
		t.Fatalf("answer after replace = %v, want %v", ids, baseline)
	}

	// Remove it; a second remove of the same handle is the client's 404.
	resp, data = do(t, http.MethodDelete, fmt.Sprintf("%s/graphs/%d", ts.URL, h), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove status = %d, body %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &mut); err != nil {
		t.Fatal(err)
	}
	if mut.Epoch != 4 {
		t.Fatalf("remove = %+v, want epoch 4", mut)
	}
	if ids, _ := queryIDs(t, ts, qbody); fmt.Sprint(ids) != fmt.Sprint(baseline) {
		t.Fatalf("answer after remove = %v, want %v", ids, baseline)
	}
	if resp, _ = do(t, http.MethodDelete, fmt.Sprintf("%s/graphs/%d", ts.URL, h), nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("double remove status = %d, want 404", resp.StatusCode)
	}

	// Malformed requests.
	if resp, _ = do(t, http.MethodDelete, ts.URL+"/graphs/abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad handle status = %d, want 400", resp.StatusCode)
	}
	if resp, _ = do(t, http.MethodPost, ts.URL+"/graphs", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ingest status = %d, want 400", resp.StatusCode)
	}
	two := append(graphText(t, solo), graphText(t, solo)...)
	if resp, _ = do(t, http.MethodPut, fmt.Sprintf("%s/graphs/%d", ts.URL, 1), two); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("two-graph replace status = %d, want 400", resp.StatusCode)
	}

	// Observability: /stats and /metrics carry the epoch and the mutation
	// counters.
	st := srv.Stats()
	if !st.Ready || !st.Mutable || st.Epoch != 4 {
		t.Errorf("stats ready=%v mutable=%v epoch=%d, want true/true/4", st.Ready, st.Mutable, st.Epoch)
	}
	if st.Engine.GraphsAdded != 1 || st.Engine.GraphsRemoved != 1 || st.Engine.GraphsReplaced != 1 {
		t.Errorf("mutation counters = %+v, want 1/1/1", st.Engine)
	}
	_, data = do(t, http.MethodGet, ts.URL+"/metrics", nil)
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
	srv := New(eng, Options{})
	ts := serve(t, srv)
	resp, data := do(t, http.MethodPost, ts.URL+"/graphs", graphText(t, q))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ingest on immutable engine = %d (%s), want 409", resp.StatusCode, data)
	}
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/graphs/1", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("remove on immutable engine = %d, want 409", resp.StatusCode)
	}
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

	resp, data := do(t, http.MethodPost, ts.URL+"/graphs", graphText(t, ds[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, data)
	}
	ing := decode[IngestResponse](t, data)

	// The very next identical query must re-execute (the old entry's key
	// carries the old epoch) and see the ingested graph.
	after, third := queryIDs(t, ts, qbody)
	if third.Cached {
		t.Fatal("query after mutation served a pre-mutation cache entry")
	}
	if fmt.Sprint(after) != fmt.Sprint(append(append([]int{}, before...), len(ds))) {
		t.Fatalf("answer after ingest = %v, want %v + [%d]", after, before, len(ds))
	}
	if _, fourth := queryIDs(t, ts, qbody); !fourth.Cached {
		t.Fatal("repeat within the new epoch not served from cache")
	}

	// And the same again across a removal.
	if resp, data := do(t, http.MethodDelete, fmt.Sprintf("%s/graphs/%d", ts.URL, ing.Handles[0]), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove status = %d, body %s", resp.StatusCode, data)
	}
	final, fifth := queryIDs(t, ts, qbody)
	if fifth.Cached {
		t.Fatal("query after removal served a pre-removal cache entry")
	}
	if fmt.Sprint(final) != fmt.Sprint(before) {
		t.Fatalf("answer after removal = %v, want %v", final, before)
	}
}

// TestBuildingReadiness covers the NewBuilding→SetEngine lifecycle: while
// the engine is building, /healthz says so with 503, queries and mutations
// are refused, and /stats and /metrics still serve the admission layer.
func TestBuildingReadiness(t *testing.T) {
	srv := NewBuilding(Options{})
	ts := serve(t, srv)

	resp, data := do(t, http.MethodGet, ts.URL+"/healthz", nil)
	hz := decode[healthResponse](t, data)
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "building" {
		t.Fatalf("healthz while building = %d %+v, want 503 building", resp.StatusCode, hz)
	}
	eng, q, _ := mutableFixture(t)
	qbody := graphText(t, q)
	if resp, _ := postQuery(t, ts.URL+"/query", qbody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query while building = %d, want 503", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/graphs", qbody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest while building = %d, want 503", resp.StatusCode)
	}
	if st := srv.Stats(); st.Ready {
		t.Error("stats ready while building")
	}
	_, data = do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if !strings.Contains(string(data), "psi_server_ready 0\n") {
		t.Error("metrics missing psi_server_ready 0 while building")
	}
	if strings.Contains(string(data), "psi_engine_queries_total") {
		t.Error("metrics serve engine counters while building")
	}

	srv.SetEngine(eng)
	resp, data = do(t, http.MethodGet, ts.URL+"/healthz", nil)
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Epoch != 1 {
		t.Fatalf("healthz after SetEngine = %d %+v, want 200 ok epoch 1", resp.StatusCode, hz)
	}
	if ids, _ := queryIDs(t, ts, qbody); len(ids) == 0 {
		t.Error("query after SetEngine returned an empty answer")
	}
}
