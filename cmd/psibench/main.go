// Command psibench regenerates the paper's tables and figures on the
// simulated datasets, and benchmarks the serving-shaped psi.Engine facade —
// including the filtering-index race — on generated workloads.
//
// Experiment mode (default) replays the paper's artifacts:
//
//	psibench [-scale tiny|small|medium|paper] [-exp fig10,table3]
//	         [-cap 300ms] [-seed 1] [-queries 20] [-list]
//
// With no -exp flag every registered experiment runs, in order. The -cap,
// -seed and -queries flags override the scale preset. Experiment IDs match
// the paper's artifact numbers (fig1..fig15, table1..table10); see
// DESIGN.md for the index.
//
// Engine mode (-engine) drives containment queries through psi.Engine the
// way a server would — plan, execute, per-query kill cap — over a generated
// PPI-like dataset, with the filtering-index portfolio selected by -index:
//
//	psibench -engine [-index ftv|grapes|ggsx|race] [-scale tiny] [-seed 1]
//	         [-queries 20] [-cap 300ms] [-json]
//
// -index race (the default) builds every registered index and races them
// per query: the first index to emit a verified candidate wins and the
// losers are cancelled. The summary reports per-index build statistics and
// race win counts. -shards=K partitions the dataset round-robin and builds
// every index as K per-shard sub-indexes behind an ascending-ID ordered
// merge; answers are byte-identical at any K.
//
// Shard-sweep mode (-shardsweep) measures the sharded engine at K=1/2/4/8
// on both dataset shapes (PPI-like and synthetic), asserting that every K
// answers byte-identically to the monolithic K=1 engine; its -json output
// is the committed BENCH_shard.json:
//
//	psibench -shardsweep [-index ftv|grapes|ggsx|race] [-scale tiny]
//	         [-seed 1] [-queries 8] [-json]
//
// Policy-sweep mode (-policysweep) compares the serving stack under three
// planning policies — always-race, solo-best (fixed on the calibration
// winner) and the learned auto policy — on uniform and skewed query mixes
// at 1/4/16 closed-loop clients, asserting answer parity before measuring
// throughput, first-result latency, attempts-started-per-answer, regret vs
// always-race, and in-flight coalescing; its -json output is the committed
// BENCH_policy.json:
//
//	psibench -policysweep [-index race] [-scale tiny] [-seed 1]
//	         [-queries 12] [-dur 1500ms] [-json]
//
// Churn mode (-churn) benchmarks the mutable dataset engine under a mixed
// ingest/delete/query load: it grows a base dataset from an ingest pool,
// tombstones older graphs along the way, answers queries between mutations,
// then asserts the churned engine's answers are byte-identical to a
// from-scratch rebuild of the final dataset and that applying one mutation
// incrementally beats that rebuild by at least 10x; its -json output is the
// committed BENCH_mutate.json:
//
//	psibench -churn [-index ftv] [-shards 8] [-scale tiny] [-seed 1]
//	         [-queries 6] [-json]
//
// Coldstart mode (-coldstart) benchmarks the persistent-snapshot path: it
// builds a dataset engine from scratch, saves a snapshot, cold-starts a
// second engine from the file alone, asserts the answers are byte-identical
// and that the load beats the build by at least 5x and reads the file at
// 150 MB/s or more; its -json output is the committed BENCH_snapshot.json:
//
//	psibench -coldstart [-index race] [-shards 4] [-scale tiny] [-seed 1]
//	         [-queries 12] [-snapfile s.psisnap] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/harness"
)

func main() {
	var (
		scaleFlag   = flag.String("scale", "tiny", "dataset scale: tiny|small|medium|paper")
		expFlag     = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		capFlag     = flag.Duration("cap", 0, "override the per-query kill cap")
		seedFlag    = flag.Int64("seed", 0, "override the experiment seed")
		queriesFlag = flag.Int("queries", 0, "override queries per size")
		listFlag    = flag.Bool("list", false, "list experiments and exit")
		engineFlag  = flag.Bool("engine", false, "benchmark the psi.Engine facade instead of replaying experiments")
		serveFlag   = flag.Bool("serve", false, "benchmark the HTTP serving stack (internal/server) with a closed-loop load generator")
		durFlag     = flag.Duration("dur", 1500*time.Millisecond, "serve mode: measured duration per (clients, cache) cell")
		indexFlag   = flag.String("index", "race", "engine/serve mode: filtering indexes, ftv|grapes|ggsx, a comma list, or race (all)")
		shardsFlag  = flag.Int("shards", 1, "engine/serve mode: dataset shards per index (round-robin; answers identical at any K)")
		sweepFlag   = flag.Bool("shardsweep", false, "sweep shard counts K=1/2/4/8 over both dataset shapes, asserting answer parity with K=1")
		policyFlag  = flag.Bool("policysweep", false, "sweep planning policies (race, solo-best, auto) over uniform and skewed serving mixes, asserting answer parity")
		churnFlag   = flag.Bool("churn", false, "benchmark the mutable engine under mixed ingest/delete/query load, asserting parity with a from-scratch rebuild")
		coldFlag    = flag.Bool("coldstart", false, "benchmark snapshot save/load against a from-scratch build, asserting answer parity")
		snapFlag    = flag.String("snapfile", "", "coldstart mode: snapshot file path (default: a temp file, removed afterwards)")
		jsonFlag    = flag.Bool("json", false, "engine/serve/shardsweep mode: emit machine-readable JSON results")
	)
	flag.Parse()

	if *listFlag {
		for _, exp := range harness.All() {
			fmt.Printf("%-8s %s\n", exp.ID, exp.Title)
		}
		return
	}

	scale, err := gen.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}

	if *coldFlag {
		if err := runColdstartBench(scale, *scaleFlag, *indexFlag, *seedFlag, *queriesFlag, *shardsFlag, *capFlag, *snapFlag, *jsonFlag); err != nil {
			fatal(err)
		}
		return
	}

	if *churnFlag {
		if err := runChurnBench(scale, *scaleFlag, *indexFlag, *seedFlag, *queriesFlag, *shardsFlag, *capFlag, *jsonFlag); err != nil {
			fatal(err)
		}
		return
	}

	if *policyFlag {
		if err := runPolicySweep(scale, *scaleFlag, *indexFlag, *seedFlag, *queriesFlag, *durFlag, *jsonFlag); err != nil {
			fatal(err)
		}
		return
	}

	if *sweepFlag {
		if err := runShardSweep(scale, *scaleFlag, *indexFlag, *seedFlag, *queriesFlag, *capFlag, *jsonFlag); err != nil {
			fatal(err)
		}
		return
	}

	if *serveFlag {
		if err := runServeBench(scale, *scaleFlag, *indexFlag, *seedFlag, *queriesFlag, *shardsFlag, *durFlag, *jsonFlag); err != nil {
			fatal(err)
		}
		return
	}

	if *engineFlag {
		if err := runEngineBench(scale, *indexFlag, *seedFlag, *queriesFlag, *shardsFlag, *capFlag, *jsonFlag); err != nil {
			fatal(err)
		}
		return
	}

	cfg := harness.DefaultConfig(scale)
	if *capFlag > 0 {
		cfg.Cap = *capFlag
	}
	if *seedFlag != 0 {
		cfg.Seed = *seedFlag
	}
	if *queriesFlag > 0 {
		cfg.QueriesPerSize = *queriesFlag
	}

	var ids []string
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	start := time.Now()
	if err := harness.Run(cfg, os.Stdout, ids...); err != nil {
		fatal(err)
	}
	fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Millisecond))
}

// runEngineBench drives dataset containment queries through the psi.Engine
// facade — the post-PR-2 serving path — rather than the direct index APIs.
func runEngineBench(scale psi.Scale, indexSpec string, seed int64, queries, shards int, cap time.Duration, asJSON bool) error {
	if seed == 0 {
		seed = 1
	}
	if queries <= 0 {
		queries = 20
	}
	kinds, err := psi.ParseIndexSpec(indexSpec)
	if err != nil {
		return err
	}
	ds := psi.GeneratePPI(scale, seed)
	buildStart := time.Now()
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: kinds,
		Shards:  shards,
		Timeout: cap,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	buildTime := time.Since(buildStart)

	// With -json, stdout carries exclusively one JSON object per query;
	// everything informational goes to stderr so the stream stays pipeable.
	info := os.Stdout
	if asJSON {
		info = os.Stderr
	}
	fmt.Fprintf(info, "engine: %d graphs, policy=%s, indexes built in %v\n",
		len(ds), eng.IndexPolicy(), buildTime.Round(time.Millisecond))
	for _, st := range eng.IndexStats() {
		fmt.Fprintf(info, "  %-10s kind=%-7s features=%-7d nodes=%-7d build=%v\n",
			st.Name, st.Kind, st.Features, st.Nodes, st.BuildTime.Round(time.Microsecond))
	}

	type record struct {
		Query    int                `json:"query"`
		Edges    int                `json:"edges"`
		Answers  int                `json:"answers"`
		Winner   string             `json:"winner"`
		Elapsed  time.Duration      `json:"elapsed_ns"`
		Killed   bool               `json:"killed"`
		Attempts []psi.IndexAttempt `json:"attempts,omitempty"`
	}
	wins := map[string]int{}
	var total time.Duration
	enc := json.NewEncoder(os.Stdout)
	for i := 0; i < queries; i++ {
		src := ds[i%len(ds)]
		q := psi.ExtractQuery(src, 4+(i%2)*4, seed+int64(i))
		res, err := eng.Query(context.Background(), q, 0)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		total += res.Elapsed
		winner := res.Winner
		for _, a := range res.IndexAttempts {
			if a.Winner {
				winner = a.Name
			}
		}
		wins[winner]++
		rec := record{
			Query: i, Edges: q.M(), Answers: len(res.GraphIDs),
			Winner: winner, Elapsed: res.Elapsed, Killed: res.Killed,
			Attempts: res.IndexAttempts,
		}
		if asJSON {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		} else {
			fmt.Printf("q%-3d edges=%-2d answers=%-3d winner=%-12s %8v killed=%v\n",
				rec.Query, rec.Edges, rec.Answers, rec.Winner,
				rec.Elapsed.Round(time.Microsecond), rec.Killed)
		}
	}
	fmt.Fprintf(info, "race wins by index:")
	for name, n := range wins {
		fmt.Fprintf(info, " %s=%d", name, n)
	}
	fmt.Fprintf(info, "\ntotal query time: %v (%d queries)\n", total.Round(time.Millisecond), queries)
	if asJSON {
		// A trailing machine-readable summary record, so bench files are
		// generated end to end: per-query records, then one aggregate with
		// build provenance and the engine's operational counters.
		summary := struct {
			Summary        bool               `json:"summary"`
			Queries        int                `json:"queries"`
			TotalElapsedNS time.Duration      `json:"total_elapsed_ns"`
			BuildNS        time.Duration      `json:"build_ns"`
			Wins           map[string]int     `json:"wins"`
			Indexes        []psi.IndexStats   `json:"indexes"`
			Counters       psi.EngineCounters `json:"counters"`
		}{
			Summary: true, Queries: queries, TotalElapsedNS: total,
			BuildNS: buildTime, Wins: wins,
			Indexes: eng.IndexStats(), Counters: eng.Counters(),
		}
		if err := enc.Encode(summary); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psibench:", err)
	os.Exit(1)
}
