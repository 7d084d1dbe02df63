package main

import (
	"bytes"
	"math/rand"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/workload"
)

// query is one pool entry: the graph for library calls and decomposed
// probes, and the exact bytes an HTTP client posts.
type query struct {
	g    *psi.Graph
	body []byte
}

// inputs is everything a workload run consumes. The dataset and the query
// population are the fixed part of a workload, like the paper's yeast file
// and its query sets: they come from datasetSeed. The run's seed draws what
// a run may vary without changing the work: the order the pool is replayed
// in, the Zipf reader's sequence of draws (rank i is always pool[i], so the
// same queries are hot in every run), and the order the writer ingests the
// spare graphs in. Resampling the population instead moves the
// medians by 20% and ftv_stragglers' throughput by 2x from seed to seed
// (one straggler query more or less), which is sampling error of the
// workload, not a property of the engine. The same seed gives byte-identical
// request bodies in the same order.
type inputs struct {
	stored *psi.Graph   // NFV
	ds     []*psi.Graph // FTV: the initial dataset
	spare  [][]byte     // serve_mixed: POST /graphs bodies, in ingest order
	pool   []query      // the fixed population
	order  []int        // the seed's replay order: a permutation of pool positions
	reads  []int        // serve_mixed: the reader's Zipf-drawn pool positions for one pass
}

func graphText(g *psi.Graph) []byte {
	var b bytes.Buffer
	if err := graph.WriteGraph(&b, g); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return b.Bytes()
}

func makeInputs(w workloadSpec, seed int64) *inputs {
	in := &inputs{}
	var sources []*psi.Graph
	if w.Single != nil {
		in.stored = gen.Single("stored", *w.Single, datasetSeed)
		sources = []*psi.Graph{in.stored}
	} else {
		cfg := *w.Synth
		cfg.NumGraphs += w.Spare
		all := gen.Synthetic(cfg, datasetSeed)
		in.ds = all[:w.Synth.NumGraphs]
		for _, g := range all[w.Synth.NumGraphs:] {
			in.spare = append(in.spare, graphText(g))
		}
		sources = in.ds
	}
	per := (w.Pool + len(w.Sizes) - 1) / len(w.Sizes)
	for _, q := range workload.Generate(sources, w.Sizes, per, datasetSeed) {
		in.pool = append(in.pool, query{g: q.Graph, body: graphText(q.Graph)})
	}
	// Generate groups by size and may overshoot by a query per size: spread
	// the sizes evenly before cutting to the pool size.
	fixed := rand.New(rand.NewSource(datasetSeed))
	fixed.Shuffle(len(in.pool), func(i, j int) { in.pool[i], in.pool[j] = in.pool[j], in.pool[i] })
	in.pool = in.pool[:w.Pool]
	r := rand.New(rand.NewSource(seed))
	in.order = r.Perm(len(in.pool))
	r.Shuffle(len(in.spare), func(i, j int) { in.spare[i], in.spare[j] = in.spare[j], in.spare[i] })
	if w.ZipfDraws > 0 {
		z := rand.NewZipf(r, 1.1, 1, uint64(len(in.pool)-1))
		for i := 0; i < w.ZipfDraws; i++ {
			in.reads = append(in.reads, int(z.Uint64()))
		}
	}
	return in
}
