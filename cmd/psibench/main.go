// Command psibench replays the paper's tables and figures on the simulated
// datasets, through internal/harness:
//
//	psibench [-scale tiny|small|medium|paper] [-exp fig10,table3]
//	         [-cap 300ms] [-seed 1] [-queries 20] [-list]
//
// With no -exp flag every registered experiment runs, in order. The -cap,
// -seed and -queries flags override the scale preset. Experiment IDs match
// the paper's artifact numbers (fig1..fig15, table1..table10); -list prints
// the index.
//
// This is the paper replay only. The repo's benchmark — set-up, heap,
// latency, per-layer probes, oracle-checked answers over the engine, the
// sharded, mutable and snapshot paths and the HTTP server — is the bench/
// module (bash bench/run.sh; bench/README.md has the glossary).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psibench:", err)
	os.Exit(1)
}
