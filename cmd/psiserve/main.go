// Command psiserve is the HTTP/JSON front end over the serving subsystem:
// it builds one long-lived psi.Engine from a dataset file (or a generated
// dataset) and serves queries with admission control, per-request
// deadlines, NDJSON streaming, a shared result cache and graceful drain.
//
//	psiserve -data ppi.txt -index race -timeout 10m -addr 127.0.0.1:8080
//	psiserve -gen ppi -scale tiny -seed 1 -addr 127.0.0.1:0 -portfile port.txt
//	psiserve -gen synthetic -scale small -shards 4 -index race   # sharded dataset:
//	     the table is partitioned into 4 round-robin shards whose streams
//	     merge in ascending ID order; answers are byte-identical to -shards 1
//	psiserve -gen ppi -index race -mode auto   # traffic-aware planning:
//	     a per-query-class bandit learns which verifier wins and runs it
//	     solo, escalating back to the full race on unfamiliar classes,
//	     stale statistics, or a budget-killed solo; answers stay identical
//	     to -mode race. (-mode single runs the first -index name's verifier
//	     alone; on one stored graph the arms are the -algos × -rewritings
//	     attempts.)
//
// The engine flags are psiquery's (internal/cli), defaults included (GQL,SPA
// over Orig,DND, -mode race, -index race): a dataset engine for more than one
// graph or an explicit -index, else a stored-graph engine. Every flag value
// is checked before the dataset is loaded.
//
// Concurrent identical queries are coalesced: overlapping requests for the
// same canonical query share one engine execution and every client gets the
// full answer, marked coalesced:true. A request carrying ?cache=0 forces
// its own execution.
//
// With -snapshot the engine's full state persists across restarts: when the
// file exists the server cold-starts from it alone (no -data/-gen, no index
// builds — the prebuilt arrays deserialize in milliseconds); when it does
// not, the engine builds as usual and saves the snapshot once ready. POST
// /snapshot re-saves the current state at any time — on a mutable server
// that includes every ingest/delete applied so far.
//
// With -mutable the dataset engine accepts online mutations: graphs can be
// ingested, removed and replaced while queries are in flight, each mutation
// bumping an epoch-versioned index snapshot whose answers stay byte-identical
// to a from-scratch rebuild. A mutable server also builds its indexes in the
// background: it listens (and writes -portfile) immediately, answering
// /healthz with status "building" (503) until the engine is ready.
//
// Endpoints:
//
//	POST /query[?limit=N&stream=1&cache=0&timeout_ms=N]  — body: one query
//	     graph in the module's text format. JSON answer, or NDJSON lines
//	     (one per embedding / containing graph ID, then a summary line)
//	     with stream=1.
//	POST /graphs           — body: one or more graphs in the module's text
//	     format; ingests each in order (requires -mutable) and returns
//	     their handles plus the new dataset epoch.
//	DELETE /graphs/{handle} — removes the graph behind an ingest handle
//	     (a tombstone; shard-local compaction after enough of them).
//	PUT  /graphs/{handle}  — body: exactly one graph; replaces the graph
//	     behind the handle in place.
//	POST /snapshot — persist the engine's current state to the -snapshot
//	     path (409 unless -snapshot was given).
//	GET  /stats    — JSON snapshot: engine counters, win tallies, index
//	     build provenance, cache effectiveness, admission state, coalescing
//	     counters, the dataset epoch and mutation counters (with -mutable),
//	     and (with -mode auto) the learned per-arm policy statistics.
//	GET  /metrics  — the same counters in Prometheus text format.
//	GET  /healthz  — 200 with status "ok" (and the dataset epoch) while
//	     serving, 503 with "building" until the engine is ready, 503 with
//	     "draining" once shutdown begins.
//
// SIGINT/SIGTERM starts a graceful drain: admission stops, in-flight
// queries finish (stragglers are cancelled after -drain), and the process
// exits 0 on a clean shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/cli"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/server"
)

func main() {
	var (
		dataFlag     = flag.String("data", "", "stored graph / dataset file (mutually exclusive with -gen)")
		genFlag      = flag.String("gen", "", "generate the dataset: synthetic|ppi|yeast|human|wordnet")
		scaleFlag    = flag.String("scale", "tiny", "generated dataset scale: tiny|small|medium|paper")
		seedFlag     = flag.Int64("seed", 1, "generator seed")
		addrFlag     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		portFileFlag = flag.String("portfile", "", "write the bound TCP port to this file once listening")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request deadline cap (0: engine budget only)")
		inflightFlag = flag.Int("max-inflight", 0, "admission limit (0: 4 x NumCPU)")
		cacheFlag    = flag.Int("cache", 256, "server result-cache entries (negative disables)")
		limitFlag    = flag.Int("limit", 1000, "default embedding limit per query")
		drainFlag    = flag.Duration("drain", 10*time.Second, "graceful-drain grace before stragglers are cancelled")
		ef           cli.Flags
	)
	ef.Register(flag.CommandLine)
	flag.BoolVar(&ef.Mutable, "mutable", false, "accept online mutations (POST/DELETE/PUT /graphs); the engine builds in the background")
	flag.IntVar(&ef.CompactEvery, "compact-every", 0, "per-shard tombstone count that triggers compaction (0: default)")
	flag.IntVar(&ef.Shards, "shards", 1, "dataset shards per index (round-robin partition; answers identical at any K)")
	flag.StringVar(&ef.Snapshot, "snapshot", "", "snapshot file: cold-start from it when present (no -data/-gen needed), save to it after a fresh build; POST /snapshot re-saves")
	flag.Parse()
	// Flags the user actually set, as opposed to defaults: the snapshot
	// carries its own shard count and index portfolio, so on a cold start
	// only explicit flags are forwarded (and must then agree with the file).
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	// Every flag value is checked here, before any dataset is loaded or
	// index built.
	cfg, err := ef.Parse(explicit)
	if err != nil {
		fatal(err)
	}

	_, statErr := os.Stat(ef.Snapshot)
	snapExists := ef.Snapshot != "" && statErr == nil
	var ds []*graph.Graph
	if !snapExists {
		ds, err = loadDataset(*dataFlag, *genFlag, *scaleFlag, *seedFlag)
		if err != nil {
			fatal(err)
		}
		if _, dataset := cfg.Options(len(ds)); !dataset && (ef.Mutable || ef.Snapshot != "") {
			fatal(errors.New("-mutable and -snapshot require a dataset engine (more than one graph, or an explicit -index)"))
		}
	}

	srv := server.NewBuilding(server.Options{
		MaxInFlight:    *inflightFlag,
		DefaultLimit:   *limitFlag,
		RequestTimeout: *reqTimeout,
		CacheSize:      *cacheFlag,
		SnapshotPath:   ef.Snapshot,
	})
	defer func() {
		if eng := srv.Engine(); eng != nil {
			eng.Close()
		}
	}()
	buildErr := make(chan error, 1)
	build := func(announce bool) {
		start := time.Now()
		eng, err := cfg.NewEngine(ds)
		if err != nil {
			buildErr <- err
			return
		}
		if snapExists {
			fmt.Fprintf(os.Stderr, "psiserve: cold-started from %s in %v\n", ef.Snapshot, time.Since(start).Round(time.Millisecond))
		} else if ef.Snapshot != "" {
			if err := eng.SaveSnapshot(ef.Snapshot); err != nil {
				eng.Close()
				buildErr <- fmt.Errorf("saving initial snapshot: %w", err)
				return
			}
			fmt.Fprintf(os.Stderr, "psiserve: snapshot saved to %s\n", ef.Snapshot)
		}
		srv.SetEngine(eng)
		if announce {
			fmt.Fprintf(os.Stderr, "psiserve: engine ready (%s)\n", describe(eng))
		}
		buildErr <- nil
	}
	if ef.Mutable {
		// A mutable server listens first and builds in the background, so
		// readiness probes see "building" instead of connection refusals.
		go build(true)
	} else {
		build(false)
		if err := <-buildErr; err != nil {
			fatal(err)
		}
		buildErr = nil
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fatal(err)
	}
	if *portFileFlag != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFileFlag, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			fatal(err)
		}
	}
	desc := "building indexes in the background"
	if eng := srv.Engine(); eng != nil {
		desc = describe(eng)
	}
	fmt.Fprintf(os.Stderr, "psiserve: listening on http://%s (%s)\n", ln.Addr(), desc)

	httpSrv := &http.Server{Handler: srv}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	for {
		select {
		case err := <-buildErr:
			if err != nil {
				fatal(err)
			}
			// Disable this case; a nil channel never fires again.
			buildErr = nil
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "psiserve: %v — draining (grace %v)\n", sig, *drainFlag)
			dctx, cancel := context.WithTimeout(context.Background(), *drainFlag)
			defer cancel()
			drainErr := srv.Shutdown(dctx)
			if err := httpSrv.Shutdown(dctx); err != nil && drainErr == nil {
				drainErr = err
			}
			if drainErr != nil {
				fmt.Fprintf(os.Stderr, "psiserve: drain cut stragglers: %v\n", drainErr)
			} else {
				fmt.Fprintln(os.Stderr, "psiserve: drained cleanly")
			}
			return
		case err := <-serveErr:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal(err)
			}
			return
		}
	}
}

// loadDataset reads -data or generates -gen.
func loadDataset(path, genKind, scaleName string, seed int64) ([]*graph.Graph, error) {
	if (path == "") == (genKind == "") {
		return nil, errors.New("exactly one of -data or -gen is required")
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ds, err := graph.ReadDataset(f)
		if err != nil {
			return nil, err
		}
		if len(ds) == 0 {
			return nil, fmt.Errorf("dataset %s is empty", path)
		}
		return ds, nil
	}
	scale, err := gen.ParseScale(scaleName)
	if err != nil {
		return nil, err
	}
	return gen.Dataset(genKind, scale, seed)
}

func describe(eng *psi.Engine) string {
	if ds := eng.Dataset(); ds != nil {
		st := eng.IndexStats()[0]
		sharding := ""
		if k := eng.Shards(); k > 1 {
			sharding = fmt.Sprintf(", shards=%d", k)
		}
		return fmt.Sprintf("FTV: %d graphs, mode=%s%s, %s table (%d postings, %d bytes)",
			len(ds), eng.Mode(), sharding, st.Kind, st.Postings, st.PostingBytes)
	}
	return fmt.Sprintf("NFV: %d vertices, mode=%s", eng.Graph().N(), eng.Mode())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psiserve:", err)
	os.Exit(1)
}
