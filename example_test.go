package psi_test

import (
	"context"
	"fmt"
	"log"
	"slices"

	psi "github.com/psi-graph/psi"
)

// The examples print only what no scheduler can change: which attempt or
// verifier wins a race, and how long it takes, varies from run to run; the
// answer does not. No engine here has a Timeout, so no kill cuts an answer
// short.

// A stored graph and a query built in code, answered through the Engine four
// ways: a collected race, a streamed race, a first-result decision, and a
// plan inspected before it runs.
func Example_quickstart() {
	// A small "molecule", labels C=0, N=1, O=2: two rings sharing a bridge.
	g := psi.MustNewGraph("molecule",
		[]psi.Label{0, 1, 0, 0, 2, 1, 2},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {5, 6}, {6, 0}})
	q := psi.MustNewGraph("c-n-c", []psi.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})

	eng, err := psi.NewEngine(g, psi.EngineOptions{
		Algorithms: []psi.Algorithm{psi.GraphQL, psi.SPath},
		Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// A collected race: the first attempt to finish answers. Each matcher
	// finds the embeddings in its own order, so they are sorted to print.
	res, err := eng.Query(ctx, q, 1000)
	if err != nil {
		log.Fatal(err)
	}
	slices.SortFunc(res.Embeddings, slices.Compare)
	fmt.Println("race:", res.Found, res.Embeddings)

	// The same race, streamed: each embedding reaches the sink as the
	// adopted attempt finds it.
	n := 0
	if _, err := eng.QueryStream(ctx, q, 1000, psi.SinkFunc(func(psi.Embedding) bool {
		n++
		return true
	})); err != nil {
		log.Fatal(err)
	}
	fmt.Println("streamed:", n)

	// A decision: the sink stops the race at the first embedding.
	first, err := eng.QueryStream(ctx, q, 1000, psi.SinkFunc(func(psi.Embedding) bool { return false }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("contained:", first.Contained())

	// Plan and execute separately, to see what the engine chose.
	plan, err := eng.Plan(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", plan.Kind, len(plan.Arms), "attempts")
	res, err = eng.Execute(ctx, plan, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("executed:", res.Found)
	// Output:
	// race: 2 [[0 1 2] [2 1 0]]
	// streamed: 2
	// contained: true
	// plan: race 4 attempts
	// executed: 2
}

// The paper's §5 study, reduced to its guarantee: a random isomorphic
// instance (a random vertex renumbering) or a structured rewriting of a query
// can change QuickSI's running time by orders of magnitude, but never the
// embeddings it finds. Each line counts the embeddings of one query as
// given, then of six random instances and of the five structured rewritings.
// The timings themselves are the paper replay's (cmd/psibench -exp fig2,fig4).
func Example_stragglers() {
	g := psi.GenerateYeastLike(psi.Tiny, 11)
	m := psi.MustNewMatcher(psi.QuickSI, g)
	count := func(q *psi.Graph) int {
		embs, err := m.Match(context.Background(), q, 100000)
		if err != nil {
			log.Fatal(err)
		}
		return len(embs)
	}
	for i := 0; i < 4; i++ {
		q := psi.ExtractQuery(g, 8, int64(500+i))
		var random, rewritten []int
		for j := 0; j < 6; j++ {
			inst, _ := psi.ApplyRandomRewriting(q, int64(100*i+j))
			random = append(random, count(inst))
		}
		for _, k := range psi.StructuredRewritings() {
			inst, _ := psi.ApplyRewriting(q, g, k)
			rewritten = append(rewritten, count(inst))
		}
		fmt.Printf("query %d: %d, random %v, rewritten %v\n", i, count(q), random, rewritten)
	}
	// Output:
	// query 0: 7, random [7 7 7 7 7 7], rewritten [7 7 7 7 7]
	// query 1: 1568, random [1568 1568 1568 1568 1568 1568], rewritten [1568 1568 1568 1568 1568]
	// query 2: 3494, random [3494 3494 3494 3494 3494 3494], rewritten [3494 3494 3494 3494 3494]
	// query 3: 40320, random [40320 40320 40320 40320 40320 40320], rewritten [40320 40320 40320 40320 40320]
}

// The matching problem on one large stored graph (the paper's NFV setting):
// a human-like graph standing in for a social network whose labels are user
// roles. Three engines over it — GraphQL alone, sPath alone, and their race
// over two rewritings — enumerate every occurrence of each interaction
// pattern. Which one straggles on which pattern differs (§7 of the paper);
// the counts they find do not.
func Example_socialnet() {
	g := psi.GenerateHumanLike(psi.Tiny, 7)
	build := func(mode psi.Mode, kinds []psi.Rewriting, algos ...psi.Algorithm) *psi.Engine {
		eng, err := psi.NewEngine(g, psi.EngineOptions{Mode: mode, Algorithms: algos, Rewritings: kinds})
		if err != nil {
			log.Fatal(err)
		}
		return eng
	}
	gql := build(psi.ModeSingle, []psi.Rewriting{psi.Orig}, psi.GraphQL)
	defer gql.Close()
	spa := build(psi.ModeSingle, []psi.Rewriting{psi.Orig}, psi.SPath)
	defer spa.Close()
	race := build(psi.ModeRace, []psi.Rewriting{psi.Orig, psi.DND}, psi.GraphQL, psi.SPath)
	defer race.Close()

	for _, seed := range []int64{100, 102, 104, 105} {
		q := psi.ExtractQuery(g, 6, seed)
		var found []int
		for _, eng := range []*psi.Engine{gql, spa, race} {
			res, err := eng.Query(context.Background(), q, 100000)
			if err != nil {
				log.Fatal(err)
			}
			found = append(found, res.Found)
		}
		fmt.Printf("pattern %d: GQL=%d SPA=%d Ψ=%d\n", seed, found[0], found[1], found[2])
	}
	// Output:
	// pattern 100: GQL=80368 SPA=80368 Ψ=80368
	// pattern 102: GQL=83307 SPA=83307 Ψ=83307
	// pattern 104: GQL=38548 SPA=38548 Ψ=38548
	// pattern 105: GQL=39747 SPA=39747 Ψ=39747
}

// The decision problem over a dataset of protein-interaction-style graphs
// (the paper's FTV setting): two Grapes engines over one dataset, one
// verifying every candidate with the query as given, the other racing the
// ILF, IND and DND rewritings on each candidate. Racing removes stragglers;
// it never changes which graphs contain the query.
func Example_proteins() {
	ds := psi.GeneratePPI(psi.Tiny, 42)
	build := func(kinds ...psi.Rewriting) *psi.Engine {
		eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
			Indexes:      []string{"grapes"},
			IndexWorkers: 4,
			Rewritings:   kinds,
		})
		if err != nil {
			log.Fatal(err)
		}
		return eng
	}
	plain := build(psi.Orig)
	defer plain.Close()
	raced := build(psi.ILF, psi.IND, psi.DND)
	defer raced.Close()

	for i := 0; i < 6; i++ {
		// A protein "motif", present in at least its source graph.
		q := psi.ExtractQuery(ds[i%len(ds)], 20, int64(1000+i))
		a, err := plain.Query(context.Background(), q, 0)
		if err != nil {
			log.Fatal(err)
		}
		b, err := raced.Query(context.Background(), q, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("motif %d: %v, raced the same: %v\n", i, a.GraphIDs, slices.Equal(a.GraphIDs, b.GraphIDs))
	}
	// Output:
	// motif 0: [0 1 2 3], raced the same: true
	// motif 1: [0 1 2 3], raced the same: true
	// motif 2: [1 2], raced the same: true
	// motif 3: [1 2 3], raced the same: true
	// motif 4: [0 1 2 3], raced the same: true
	// motif 5: [0 1], raced the same: true
}

// A mutable, sharded dataset engine serving all three index names: one
// table per shard, whose candidates race Grapes' verifier under the
// rewritings. A graph added is visible to the next query, under a new epoch.
func ExampleEngine_AddGraph() {
	ctx := context.Background()
	ds := psi.GeneratePPI(psi.Tiny, 1)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: psi.IndexKinds(), // "ftv", "grapes", "ggsx": one table, verified by Grapes
		Shards:  4,                // answers identical at any K
		Mutable: true,             // opens AddGraph, RemoveGraph, ReplaceGraph
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	q := psi.ExtractQuery(ds[0], 4, 7)
	res, err := eng.Query(ctx, q, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graphs:", res.GraphIDs, "epoch:", res.Epoch)

	h, err := eng.AddGraph(ctx, q) // a graph contains itself
	if err != nil {
		log.Fatal(err)
	}
	res, err = eng.Query(ctx, q, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graphs:", res.GraphIDs, "epoch:", res.Epoch)

	if _, err := eng.RemoveGraph(ctx, h); err != nil { // a tombstone, compacted when due
		log.Fatal(err)
	}
	res, err = eng.Query(ctx, q, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graphs:", res.GraphIDs, "epoch:", res.Epoch)
	// Output:
	// graphs: [0 1 2 3] epoch: 1
	// graphs: [0 1 2 3 4] epoch: 2
	// graphs: [0 1 2 3] epoch: 3
}
