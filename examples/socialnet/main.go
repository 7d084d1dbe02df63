// Socialnet: the matching problem on one large stored graph (the paper's
// NFV setting). Uses a dense human-like graph as a stand-in for a social
// network where labels are user roles, finds all occurrences of interaction
// patterns, and compares single algorithms against a Ψ-framework portfolio:
// three engines over the same graph, two under ModeSingle and one racing.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	psi "github.com/psi-graph/psi"
)

const (
	patternEdges = 24
	numPatterns  = 12
	limit        = 1000
	cap          = 150 * time.Millisecond
)

func main() {
	fmt.Println("generating a human-like interaction graph...")
	g := psi.GenerateHumanLike(psi.Tiny, 7)
	st := psi.ComputeStats(g)
	fmt.Printf("  %d users, %d interactions, avg degree %.1f, %d roles\n\n",
		st.Nodes, st.Edges, st.AvgDegree, st.Labels)

	build := func(mode psi.Mode, kinds []psi.Rewriting, algos ...psi.Algorithm) *psi.Engine {
		eng, err := psi.NewEngine(g, psi.EngineOptions{Mode: mode, Algorithms: algos, Rewritings: kinds, Timeout: cap})
		if err != nil {
			log.Fatal(err)
		}
		return eng
	}
	gql := build(psi.ModeSingle, []psi.Rewriting{psi.Orig}, psi.GraphQL)
	defer gql.Close()
	spa := build(psi.ModeSingle, []psi.Rewriting{psi.Orig}, psi.SPath)
	defer spa.Close()
	portfolio := build(psi.ModeRace, []psi.Rewriting{psi.Orig, psi.DND}, psi.GraphQL, psi.SPath)
	defer portfolio.Close()

	fmt.Printf("%-10s %12s %12s %12s\n", "pattern", "GQL", "SPA", "Ψ(GQL/SPA)")
	var tGQL, tSPA, tPsi time.Duration
	for i := 0; i < numPatterns; i++ {
		q := psi.ExtractQuery(g, patternEdges, int64(100+i))
		a := timeQuery(gql, q)
		b := timeQuery(spa, q)
		c := timeQuery(portfolio, q)
		tGQL += a
		tSPA += b
		tPsi += c
		fmt.Printf("pattern%-3d %12s %12s %12s\n", i, fmtT(a), fmtT(b), fmtT(c))
	}
	fmt.Printf("%-10s %12s %12s %12s\n", "TOTAL", fmtT(tGQL), fmtT(tSPA), fmtT(tPsi))
	fmt.Printf("\nportfolio speedup: %.1fx vs GQL, %.1fx vs SPA\n",
		float64(tGQL)/float64(tPsi), float64(tSPA)/float64(tPsi))
	fmt.Println(`
The portfolio is insurance: without knowing in advance which algorithm will
straggle on which pattern (stragglers are algorithm-specific — §7 of the
paper), racing both buys near-best-of-both at the cost of some parallelism.
Here SPA hit the kill cap on several patterns; the portfolio never did.`)
}

// timeQuery runs one matching under the engine's cap; a killed run comes
// back with Elapsed clamped to the cap.
func timeQuery(eng *psi.Engine, q *psi.Graph) time.Duration {
	res, err := eng.Query(context.Background(), q, limit)
	if err != nil {
		log.Fatal(err)
	}
	return res.Elapsed
}

func fmtT(d time.Duration) string {
	if d >= cap {
		return "KILLED"
	}
	return d.Round(10 * time.Microsecond).String()
}
