// Serve quickstart: stand up the HTTP serving subsystem over a dataset
// engine, hit it with real HTTP requests — a streamed NDJSON query, a
// repeat query answered from the shared result cache, a stats snapshot —
// and drain it gracefully. This is the whole lifecycle of cmd/psiserve in
// one program, against an in-process listener.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/server"
)

func main() {
	// A generated protein-interaction-style dataset, served under all three
	// index names: one table, whose candidates race the FTV/GGSX and Grapes
	// verifiers.
	ds := psi.GeneratePPI(psi.Tiny, 1)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: psi.IndexKinds(),
		Timeout: time.Minute, // per-query kill cap, reported as killed:true
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// The serving layer: admission control, per-request deadlines, NDJSON
	// streaming, the shared result cache, /stats + /metrics, drain.
	srv := server.New(eng, server.Options{
		MaxInFlight: 8,
		CacheSize:   64,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// A query extracted from the dataset itself, serialized in the module's
	// text format — the /query request body.
	q := psi.ExtractQuery(ds[0], 4, 7)
	var body bytes.Buffer
	if err := graph.WriteGraph(&body, q); err != nil {
		log.Fatal(err)
	}

	// 1. Streamed: one NDJSON line per containing graph ID, as the
	// verification races settle them, then a summary line.
	resp, err := http.Post(base+"/query?stream=1", "text/plain", bytes.NewReader(body.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("streamed answer:\n%s", stream)

	// 2. The same query again, collected this time: the serving layer
	// remembered the completed stream, so this is a cache hit
	// ("cached":true) that never touches the engine.
	resp, err = http.Post(base+"/query", "text/plain", bytes.NewReader(body.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	cached, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("repeat query: %s", cached)

	// 3. Operational state: engine counters, the table's build provenance,
	// win tallies, result-cache effectiveness.
	resp, err = http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("stats: %s", stats)

	// 4. Graceful drain: stop admitting, finish in-flight work, then close
	// the listener. A production server triggers this from SIGTERM.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
