// Proteins: the decision problem over a dataset of protein-interaction-
// style graphs (the paper's FTV setting). Builds two Grapes engines over the
// same dataset, runs a motif workload through the one that verifies the
// original query only, shows the straggler phenomenon, and then removes the
// stragglers with the one that races query rewritings in the verification
// stage.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	psi "github.com/psi-graph/psi"
)

const (
	queryEdges = 20
	numQueries = 12
	cap        = 150 * time.Millisecond
)

func main() {
	fmt.Println("generating PPI-like dataset...")
	ds := psi.GeneratePPI(psi.Tiny, 42)
	st := psi.ComputeDatasetStats("ppi-like", ds)
	fmt.Printf("  %d graphs, avg %.0f nodes, avg degree %.1f, %d labels\n\n",
		st.NumGraphs, st.AvgNodes, st.AvgDegree, st.Labels)

	fmt.Println("building Grapes engines (4 workers, paths <= 4 edges)...")
	start := time.Now()
	plain := mustEngine(ds, []psi.Rewriting{psi.Orig})
	defer plain.Close()
	raced := mustEngine(ds, []psi.Rewriting{psi.ILF, psi.IND, psi.DND})
	defer raced.Close()
	fmt.Printf("  built in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Extract protein "motifs" as queries; each is guaranteed to occur in
	// at least its source graph.
	var queries []*psi.Graph
	for i := 0; i < numQueries; i++ {
		queries = append(queries, psi.ExtractQuery(ds[i%len(ds)], queryEdges, int64(1000+i)))
	}

	fmt.Println("plain Grapes (every candidate verified with the query as given):")
	tPlain := measure(plain, queries)

	fmt.Println("\nΨ-framework (every candidate races the ILF/IND/DND rewritings):")
	tRaced := measure(raced, queries)

	fmt.Printf("\ntotal query time: plain=%v psi=%v (%.1fx)\n",
		tPlain.Round(time.Millisecond), tRaced.Round(time.Millisecond),
		float64(tPlain)/float64(tRaced))
}

// mustEngine builds a single-index dataset engine whose verification races
// the given rewritings per candidate graph, under the per-query cap.
func mustEngine(ds []*psi.Graph, kinds []psi.Rewriting) *psi.Engine {
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes:      []string{"grapes"},
		IndexWorkers: 4,
		Rewritings:   kinds,
		Timeout:      cap,
	})
	if err != nil {
		log.Fatal(err)
	}
	return eng
}

// measure answers every query under the engine's cap, prints a small latency
// profile, and returns the total time (killed queries counted at the cap).
func measure(eng *psi.Engine, queries []*psi.Graph) time.Duration {
	var times []time.Duration
	killed, answers := 0, 0
	for _, q := range queries {
		res, err := eng.Query(context.Background(), q, 0)
		if err != nil {
			log.Fatal(err)
		}
		if res.Killed {
			killed++
		}
		answers += len(res.GraphIDs)
		times = append(times, res.Elapsed)
	}
	slices.Sort(times)
	var total time.Duration
	for _, t := range times {
		total += t
	}
	median := times[len(times)/2]
	max := times[len(times)-1]
	fmt.Printf("  %d queries, %d containing graphs: median=%v max=%v killed=%d total=%v\n",
		len(times), answers, median.Round(time.Microsecond), max.Round(time.Microsecond),
		killed, total.Round(time.Millisecond))
	fmt.Printf("  straggler skew: max/median = %.0fx\n",
		float64(max)/float64(median))
	return total
}
