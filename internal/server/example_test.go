package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/server"
)

// The whole lifecycle of cmd/psiserve against an in-process HTTP server: a
// streamed NDJSON query, the same query again answered from the shared result
// cache, a /stats snapshot that counts both, and a graceful drain. It prints
// only what no scheduler can change: never a winner or an elapsed time.
func Example_serve() {
	// A protein-interaction-style dataset under all three index names: one
	// table, whose candidates race Grapes' verifier under the rewritings.
	ds := psi.GeneratePPI(psi.Tiny, 1)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: psi.IndexKinds()})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(eng, server.Options{MaxInFlight: 8, CacheSize: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The /query body: a query in the module's text format.
	var body bytes.Buffer
	if err := graph.WriteGraph(&body, psi.ExtractQuery(ds[0], 4, 7)); err != nil {
		log.Fatal(err)
	}
	post := func(path string) *http.Response {
		resp, err := http.Post(ts.URL+path, "text/plain", bytes.NewReader(body.Bytes()))
		if err != nil {
			log.Fatal(err)
		}
		return resp
	}

	// 1. Streamed: one NDJSON line per containing graph ID, in ascending
	// order as the verification races settle, then a summary line.
	resp := post("/query?stream=1")
	fmt.Println("stream:", resp.StatusCode)
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		var line struct {
			GraphID *int `json:"graph_id"`
			Done    bool `json:"done"`
			Found   int  `json:"found"`
		}
		if err := json.Unmarshal(lines.Bytes(), &line); err != nil {
			log.Fatal(err)
		}
		if line.GraphID != nil {
			fmt.Println("  graph", *line.GraphID)
		} else {
			fmt.Println("  done:", line.Done, "found:", line.Found)
		}
	}
	resp.Body.Close()

	// 2. The same query again, collected: a cache hit that never reaches
	// the engine.
	resp = post("/query")
	var repeat struct {
		GraphIDs []int `json:"graph_ids"`
		Cached   bool  `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&repeat); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("repeat:", resp.StatusCode, repeat.GraphIDs, "cached:", repeat.Cached)

	// 3. Operational state: two requests admitted, one engine execution,
	// one cache miss and one hit.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	var stats struct {
		Admitted int64 `json:"admitted"`
		Engine   struct {
			Queries int64 `json:"queries"`
		} `json:"engine"`
		ResultCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"result_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("stats:", resp.StatusCode, "admitted", stats.Admitted, "executed", stats.Engine.Queries,
		"cache hits", stats.ResultCache.Hits, "misses", stats.ResultCache.Misses)

	// 4. Graceful drain: stop admitting, finish in-flight work. A
	// production server triggers this from SIGTERM.
	fmt.Println("shutdown:", srv.Shutdown(context.Background()))
	// Output:
	// stream: 200
	//   graph 0
	//   graph 1
	//   graph 2
	//   graph 3
	//   done: true found: 4
	// repeat: 200 [0 1 2 3] cached: true
	// stats: 200 admitted 2 executed 1 cache hits 1 misses 1
	// shutdown: <nil>
}
