// Proteins: the decision problem over a dataset of protein-interaction-
// style graphs (the paper's FTV setting). Builds a Grapes index, runs a
// motif workload, shows the straggler phenomenon, and then removes the
// stragglers by racing query rewritings in the verification stage.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
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

	fmt.Println("building Grapes index (4 workers, paths <= 4 edges)...")
	start := time.Now()
	index := psi.NewGrapes(ds, 4)
	defer index.Close()
	fmt.Printf("  built in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Extract protein "motifs" as queries; each is guaranteed to occur in
	// at least its source graph.
	var queries []*psi.Graph
	for i := 0; i < numQueries; i++ {
		queries = append(queries, psi.ExtractQuery(ds[i%len(ds)], queryEdges, int64(1000+i)))
	}

	fmt.Println("plain Grapes verification (per candidate graph):")
	plain := measure(queries, func(ctx context.Context, q *psi.Graph, id int) error {
		_, err := index.Verify(ctx, q, id)
		return err
	}, index)

	fmt.Println("\nΨ-framework verification (racing ILF/IND/DND rewritings):")
	racer := psi.NewFTVRacer(index, []psi.Rewriting{psi.ILF, psi.IND, psi.DND})
	raced := measure(queries, func(ctx context.Context, q *psi.Graph, id int) error {
		_, err := racer.Verify(ctx, q, id)
		return err
	}, index)

	fmt.Printf("\ntotal verification time: plain=%v psi=%v (%.1fx)\n",
		plain.Round(time.Millisecond), raced.Round(time.Millisecond),
		float64(plain)/float64(raced))
}

// measure runs the verification of every (query, candidate) pair under the
// cap, prints a small latency profile, and returns the total time (killed
// verifications counted at the cap).
func measure(queries []*psi.Graph, verify func(context.Context, *psi.Graph, int) error, index psi.FilterIndex) time.Duration {
	var times []time.Duration
	killed := 0
	for _, q := range queries {
		for _, id := range index.Filter(q) {
			ctx, cancel := context.WithTimeout(context.Background(), cap)
			t0 := time.Now()
			err := verify(ctx, q, id)
			elapsed := time.Since(t0)
			cancel()
			if err != nil {
				elapsed = cap
				killed++
			}
			times = append(times, elapsed)
		}
	}
	if len(times) == 0 {
		log.Fatal("no candidate pairs — try another seed")
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var total time.Duration
	for _, t := range times {
		total += t
	}
	median := times[len(times)/2]
	max := times[len(times)-1]
	fmt.Printf("  %d pairs: median=%v max=%v killed=%d total=%v\n",
		len(times), median.Round(time.Microsecond), max.Round(time.Microsecond),
		killed, total.Round(time.Millisecond))
	fmt.Printf("  straggler skew: max/median = %.0fx\n",
		float64(max)/float64(median))
	return total
}
