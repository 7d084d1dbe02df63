package main

// Policy-sweep mode: measures what the traffic-aware auto policy buys over
// the paper's always-race baseline at the serving layer. Three engines over
// the same dataset — always-race, solo-best (fixed on the index that wins
// the calibration pass), and auto (learned solo with race escalation) — are
// each driven through the HTTP stack by a closed-loop generator under a
// uniform and a skewed query mix. Before anything is measured, every
// distinct query's auto and fixed answers are asserted identical to the
// race engine's (the calibration pass doubles as the bandit's warmup).
// The -json output is the committed BENCH_policy.json.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/server"
)

// policyCell is one measured (policy, mix, clients) configuration.
type policyCell struct {
	Policy            string  `json:"policy"`
	Mix               string  `json:"mix"`
	Clients           int     `json:"clients"`
	Requests          int     `json:"requests"`
	Errors            int     `json:"errors"`
	ThroughputQPS     float64 `json:"throughput_qps"`
	FirstResultP50US  int64   `json:"first_result_p50_us"`
	FirstResultP99US  int64   `json:"first_result_p99_us"`
	AttemptsPerAnswer float64 `json:"attempts_per_answer"`
	Coalesced         int64   `json:"coalesced"`
	PolicySolo        int64   `json:"policy_solo"`
	PolicyRaces       int64   `json:"policy_races"`
	// RegretP99VsRace is the relative p99 first-result latency cost of this
	// policy against the always-race cell at the same (mix, clients):
	// (p99 - p99_race) / p99_race. Negative means faster than the race.
	RegretP99VsRace float64 `json:"regret_p99_vs_race"`
	// AttemptsVsRace is this cell's attempts-per-answer divided by the
	// always-race cell's: the fraction of the race's work the policy pays.
	AttemptsVsRace float64 `json:"attempts_vs_race"`
}

// policyReport is the full -policysweep output document.
type policyReport struct {
	Bench         string              `json:"bench"`
	Scale         string              `json:"scale"`
	Seed          int64               `json:"seed"`
	DatasetGraphs int                 `json:"dataset_graphs"`
	IndexSpec     string              `json:"index_spec"`
	SoloBest      string              `json:"solo_best_index"`
	Queries       int                 `json:"distinct_queries"`
	ParityChecked int                 `json:"parity_checked"`
	CellMillis    int64               `json:"duration_per_cell_ms"`
	CPUs          int                 `json:"cpus"`
	Cells         []policyCell        `json:"cells"`
	AutoPolicy    *psi.PolicySnapshot `json:"auto_policy,omitempty"`
}

// mixIndex maps a client's i-th request onto a query-pool slot. The skewed
// mix sends 80% of the traffic to two hot queries — the repeat-heavy shape
// coalescing and the learned solo are built for; the uniform mix walks the
// whole pool round-robin.
func mixIndex(mix string, c, i, pool int) int {
	if mix != "skewed" || pool < 3 {
		return (c + i) % pool
	}
	if i%5 < 4 {
		return i % 2 // hot pair
	}
	return 2 + (c+i)%(pool-2)
}

// runPolicySweep builds the three engines, asserts answer parity, then
// measures every (policy, mix, clients) cell.
func runPolicySweep(scale psi.Scale, scaleName, indexSpec string, seed int64, queries int, cellDur time.Duration, asJSON bool) error {
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
	if len(kinds) < 2 {
		return fmt.Errorf("policy sweep needs at least 2 indexes to race, got %v", kinds)
	}
	info := os.Stdout
	if asJSON {
		info = os.Stderr
	}

	ds := psi.GeneratePPI(scale, seed)
	race, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: kinds, IndexPolicy: psi.IndexRace})
	if err != nil {
		return err
	}
	defer race.Close()
	auto, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: kinds, IndexPolicy: psi.IndexAuto})
	if err != nil {
		return err
	}
	defer auto.Close()

	// Query pool, pre-serialized for the load loop.
	queryGraphs := make([]*psi.Graph, queries)
	bodies := make([][]byte, queries)
	for i := range bodies {
		queryGraphs[i] = psi.ExtractQuery(ds[i%len(ds)], 4+(i%2)*4, seed+int64(i))
		var buf bytes.Buffer
		if err := graph.WriteGraph(&buf, queryGraphs[i]); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
	}

	// Calibration: every query answered by the race engine (its per-index
	// wins elect the solo-best index) and, repeatedly, by the auto engine —
	// parity is asserted on every run, and the repeats are the bandit's
	// warmup so the measured cells see the learned policy, not cold start.
	const warmupPasses = 4
	wins := map[string]int{}
	parity := 0
	var want [][]int
	for _, q := range queryGraphs {
		res, err := race.Query(context.Background(), q, 0)
		if err != nil {
			return err
		}
		for _, a := range res.IndexAttempts {
			if a.Winner {
				wins[a.Name]++
			}
		}
		want = append(want, res.GraphIDs)
	}
	for pass := 0; pass < warmupPasses; pass++ {
		for qi, q := range queryGraphs {
			res, err := auto.Query(context.Background(), q, 0)
			if err != nil {
				return err
			}
			if !equalIDs(res.GraphIDs, want[qi]) {
				return fmt.Errorf("auto policy diverged on query %d pass %d: got %v, race answered %v",
					qi, pass, res.GraphIDs, want[qi])
			}
			parity++
		}
	}
	// Attempt names are index display names; fold them back onto the
	// registered kinds to elect the solo-best index.
	nameToKind := map[string]string{}
	for _, st := range race.IndexStats() {
		nameToKind[st.Name] = st.Kind
	}
	kindWins := map[string]int{}
	for name, n := range wins {
		if kind, ok := nameToKind[name]; ok {
			kindWins[kind] += n
		}
	}
	soloBest := kinds[0]
	for kind, n := range kindWins {
		if n > kindWins[soloBest] {
			soloBest = kind
		}
	}
	fixed, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Index: soloBest})
	if err != nil {
		return err
	}
	defer fixed.Close()
	for qi, q := range queryGraphs {
		res, err := fixed.Query(context.Background(), q, 0)
		if err != nil {
			return err
		}
		if !equalIDs(res.GraphIDs, want[qi]) {
			return fmt.Errorf("fixed index %s diverged on query %d: got %v, race answered %v",
				soloBest, qi, res.GraphIDs, want[qi])
		}
		parity++
	}
	fmt.Fprintf(info, "policy sweep: %d graphs, %d distinct queries, solo-best=%s, %d parity checks, %v per cell\n",
		len(ds), queries, soloBest, parity, cellDur)

	report := policyReport{
		Bench:         "policy",
		Scale:         scaleName,
		Seed:          seed,
		DatasetGraphs: len(ds),
		IndexSpec:     indexSpec,
		SoloBest:      soloBest,
		Queries:       queries,
		ParityChecked: parity,
		CellMillis:    cellDur.Milliseconds(),
		CPUs:          runtime.NumCPU(),
	}
	engines := []struct {
		name string
		eng  *psi.Engine
	}{
		{"race", race},
		{"fixed:" + soloBest, fixed},
		{"auto", auto},
	}
	baseline := map[string]policyCell{} // (mix, clients) -> always-race cell
	for _, mix := range []string{"uniform", "skewed"} {
		for _, clients := range []int{1, 4, 16} {
			for _, e := range engines {
				cell, err := runPolicyCell(e.eng, e.name, mix, bodies, clients, cellDur)
				if err != nil {
					return err
				}
				ref := fmt.Sprintf("%s/%d", mix, clients)
				if e.name == "race" {
					baseline[ref] = cell
				} else if base, ok := baseline[ref]; ok {
					if base.FirstResultP99US > 0 {
						cell.RegretP99VsRace = float64(cell.FirstResultP99US-base.FirstResultP99US) / float64(base.FirstResultP99US)
					}
					if base.AttemptsPerAnswer > 0 {
						cell.AttemptsVsRace = cell.AttemptsPerAnswer / base.AttemptsPerAnswer
					}
				}
				report.Cells = append(report.Cells, cell)
				fmt.Fprintf(info, "%-12s %-7s clients=%-2d %6.1f q/s  first p50=%-8v p99=%-8v  attempts/answer=%.2f coalesced=%d\n",
					cell.Policy, cell.Mix, cell.Clients, cell.ThroughputQPS,
					time.Duration(cell.FirstResultP50US)*time.Microsecond,
					time.Duration(cell.FirstResultP99US)*time.Microsecond,
					cell.AttemptsPerAnswer, cell.Coalesced)
			}
		}
	}
	if snap, ok := auto.PolicyStats(); ok {
		report.AutoPolicy = &snap
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	return nil
}

// runPolicyCell measures one (engine, mix, clients) cell through a fresh
// serving stack. The server's result cache is disabled so every request
// reaches the planner or a live flight — the sweep isolates planning policy
// and coalescing, not LRU replay (BENCH_serve covers the cache).
func runPolicyCell(eng *psi.Engine, policy, mix string, bodies [][]byte, clients int, d time.Duration) (policyCell, error) {
	srv := server.New(eng, server.Options{
		MaxInFlight: clients + 1,
		CacheSize:   -1,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/query?stream=1"

	before := eng.Counters()
	var (
		mu     sync.Mutex
		firsts []time.Duration
		errs   int
	)
	loopStart := time.Now()
	stop := loopStart.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; time.Now().Before(stop); i++ {
				body := bodies[mixIndex(mix, c, i, len(bodies))]
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
				resp.Body.Close()
				mu.Lock()
				if ferr != nil || derr != nil || resp.StatusCode != http.StatusOK {
					errs++
				} else {
					firsts = append(firsts, first)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	span := time.Since(loopStart)
	after := eng.Counters()
	st := srv.Stats()

	cell := policyCell{
		Policy:      policy,
		Mix:         mix,
		Clients:     clients,
		Requests:    len(firsts),
		Errors:      errs,
		Coalesced:   st.Coalesced,
		PolicySolo:  after.PolicySolo - before.PolicySolo,
		PolicyRaces: after.PolicyRaces - before.PolicyRaces,
	}
	if len(firsts) == 0 {
		return cell, fmt.Errorf("policy cell %s/%s/%d completed no requests", policy, mix, clients)
	}
	// Attempts-per-answer is the CPU-normalized cost of one delivered
	// answer: filtering pipelines started divided by client answers served.
	// Solo planning lowers the numerator; coalescing lowers it further by
	// answering several clients from one execution. A fixed-index engine
	// has no racer and reports no IndexAttempts — there each engine query
	// is exactly one pipeline.
	attempts := after.IndexAttempts - before.IndexAttempts
	if attempts == 0 {
		attempts = after.Queries - before.Queries
	}
	cell.AttemptsPerAnswer = float64(attempts) / float64(len(firsts))
	cell.ThroughputQPS = float64(len(firsts)) / span.Seconds()
	cell.FirstResultP50US = pct(firsts, 50).Microseconds()
	cell.FirstResultP99US = pct(firsts, 99).Microseconds()
	return cell, nil
}

// equalIDs reports whether two ascending answer-ID slices are identical.
func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
