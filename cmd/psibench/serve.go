package main

// Serve mode: a closed-loop load generator over an in-process serving
// stack (psi.Engine behind internal/server behind a real HTTP listener),
// measuring what a client of cmd/psiserve would see — throughput and
// first-result latency under concurrency, with the shared result cache on
// and off. The -json output is the committed BENCH_serve.json.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/server"
)

// serveCell is one measured (clients, cache) configuration.
type serveCell struct {
	Clients          int     `json:"clients"`
	Cache            bool    `json:"cache"`
	Requests         int     `json:"requests"`
	Errors           int     `json:"errors"`
	ThroughputQPS    float64 `json:"throughput_qps"`
	FirstResultP50US int64   `json:"first_result_p50_us"`
	FirstResultP99US int64   `json:"first_result_p99_us"`
	TotalP50US       int64   `json:"total_p50_us"`
	TotalP99US       int64   `json:"total_p99_us"`
	CacheHits        int64   `json:"cache_hits"`
}

// serveReport is the full -serve output document.
type serveReport struct {
	Bench         string           `json:"bench"`
	Scale         string           `json:"scale"`
	Seed          int64            `json:"seed"`
	DatasetGraphs int              `json:"dataset_graphs"`
	IndexSpec     string           `json:"index_spec"`
	IndexPolicy   string           `json:"index_policy"`
	Queries       int              `json:"distinct_queries"`
	CellMillis    int64            `json:"duration_per_cell_ms"`
	CPUs          int              `json:"cpus"`
	Cells         []serveCell      `json:"cells"`
	Indexes       []psi.IndexStats `json:"indexes"`
}

// runServeBench drives the closed loop and prints text or JSON.
func runServeBench(scale psi.Scale, scaleName, indexSpec string, seed int64, queries, shards int, cellDur time.Duration, asJSON bool) error {
	if seed == 0 {
		seed = 1
	}
	if queries <= 0 {
		queries = 12
	}
	if cellDur <= 0 {
		cellDur = 1500 * time.Millisecond
	}
	kinds, err := psi.ParseIndexSpec(indexSpec)
	if err != nil {
		return err
	}
	ds := psi.GeneratePPI(scale, seed)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: kinds, Shards: shards})
	if err != nil {
		return err
	}
	defer eng.Close()

	info := os.Stdout
	if asJSON {
		info = os.Stderr
	}
	fmt.Fprintf(info, "serve bench: %d graphs, policy=%s, %d distinct queries, %v per cell\n",
		len(ds), eng.IndexPolicy(), queries, cellDur)

	// Pre-serialize the query pool: the load generator must not pay
	// extraction or serialization inside the measured loop.
	bodies := make([][]byte, queries)
	for i := range bodies {
		q := psi.ExtractQuery(ds[i%len(ds)], 4+(i%2)*4, seed+int64(i))
		var buf bytes.Buffer
		if err := graph.WriteGraph(&buf, q); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
	}

	report := serveReport{
		Bench:         "serve",
		Scale:         scaleName,
		Seed:          seed,
		DatasetGraphs: len(ds),
		IndexSpec:     indexSpec,
		IndexPolicy:   eng.IndexPolicy(),
		Queries:       queries,
		CellMillis:    cellDur.Milliseconds(),
		CPUs:          runtime.NumCPU(),
		Indexes:       eng.IndexStats(),
	}
	for _, cache := range []bool{false, true} {
		for _, clients := range []int{1, 4, 16} {
			cell, err := runServeCell(eng, bodies, clients, cache, cellDur)
			if err != nil {
				return err
			}
			report.Cells = append(report.Cells, cell)
			fmt.Fprintf(info, "clients=%-2d cache=%-5v %6.1f q/s  first p50=%-8v p99=%-8v  total p50=%-8v p99=%v\n",
				cell.Clients, cell.Cache, cell.ThroughputQPS,
				time.Duration(cell.FirstResultP50US)*time.Microsecond,
				time.Duration(cell.FirstResultP99US)*time.Microsecond,
				time.Duration(cell.TotalP50US)*time.Microsecond,
				time.Duration(cell.TotalP99US)*time.Microsecond)
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	return nil
}

// runServeCell measures one configuration: clients closed-loop goroutines
// against a fresh Server (fresh cache) over the shared engine.
func runServeCell(eng *psi.Engine, bodies [][]byte, clients int, cache bool, d time.Duration) (serveCell, error) {
	srv := server.New(eng, server.Options{
		MaxInFlight: clients + 1, // closed loop: never rejects, still bounded
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/query?stream=1&cache=0"
	if cache {
		url = ts.URL + "/query?stream=1&cache=1"
	}

	type sample struct{ first, total time.Duration }
	var (
		mu      sync.Mutex
		samples []sample
		errs    int
	)
	loopStart := time.Now()
	stop := loopStart.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for i := c; time.Now().Before(stop); i++ {
				body := bodies[i%len(bodies)]
				start := time.Now()
				resp, err := client.Post(url, "text/plain", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					errs++
					mu.Unlock()
					continue
				}
				br := bufio.NewReader(resp.Body)
				_, ferr := br.ReadString('\n')
				first := time.Since(start)
				_, derr := io.Copy(io.Discard, br)
				total := time.Since(start)
				resp.Body.Close()
				mu.Lock()
				if ferr != nil || derr != nil || resp.StatusCode != http.StatusOK {
					errs++
				} else {
					samples = append(samples, sample{first, total})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	// Requests in flight at the stop deadline run to completion and count;
	// divide by the measured span, not the nominal one, so they do not
	// inflate the reported throughput.
	span := time.Since(loopStart)

	cell := serveCell{Clients: clients, Cache: cache, Requests: len(samples), Errors: errs}
	if st := srv.Stats(); st.ResultCache != nil {
		cell.CacheHits = st.ResultCache.Hits
	}
	if len(samples) == 0 {
		return cell, fmt.Errorf("serve cell clients=%d cache=%v completed no requests", clients, cache)
	}
	firsts := make([]time.Duration, len(samples))
	totals := make([]time.Duration, len(samples))
	for i, s := range samples {
		firsts[i], totals[i] = s.first, s.total
	}
	cell.ThroughputQPS = float64(len(samples)) / span.Seconds()
	cell.FirstResultP50US = pct(firsts, 50).Microseconds()
	cell.FirstResultP99US = pct(firsts, 99).Microseconds()
	cell.TotalP50US = pct(totals, 50).Microseconds()
	cell.TotalP99US = pct(totals, 99).Microseconds()
	return cell, nil
}

// pct returns the p-th percentile (nearest-rank) of ds.
func pct(ds []time.Duration, p int) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
