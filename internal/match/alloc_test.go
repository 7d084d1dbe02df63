package match_test

import (
	"context"
	"testing"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/workload"
)

// stopAtFirst is a sink that allocates nothing and stops the search at its
// first embedding.
var stopAtFirst = match.SinkFunc(func(match.Embedding) bool { return false })

// TestMatcherAllocs: one fixed decision query per matcher allocates no more
// than it did when each matcher still ran a search of its own, and no more
// under the DND ranking than the bound measured when rankings replaced
// searching a permuted copy and mapping each embedding back. The plain
// bounds are those searches' counts; the ranked ones add the copy the plan is
// built on (about 30 of them), the inverse ranking and GraphQL's and sPath's
// renumbered candidate sets. Scratch the join pools may only lower them.
func TestMatcherAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's own")
	}
	g := gen.YeastLike(gen.Tiny, 1)
	q := workload.GenerateSingle(g, []int{6}, 1, 7)[0].Graph
	dnd := rewrite.Compute(q, nil, rewrite.DND, 0)
	bound := map[string]float64{"VF2": 6, "QSI": 6, "GQL": 569, "SPA": 54}
	rankedBound := map[string]float64{"VF2": 36, "QSI": 36, "GQL": 601, "SPA": 86}
	ctx := context.Background()
	for _, m := range goldenMatchers(g) {
		if err := m.MatchStream(ctx, q, 0, stopAtFirst); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() { m.MatchStream(ctx, q, 0, stopAtFirst) })
		ranked := testing.AllocsPerRun(50, func() { match.Ranked(ctx, m, q, dnd, nil, 0, stopAtFirst) })
		t.Logf("%s: %.0f allocations, %.0f under DND", m.Name(), got, ranked)
		if got > bound[m.Name()] {
			t.Errorf("%s: a decision makes %.0f allocations, more than the %.0f of its own search", m.Name(), got, bound[m.Name()])
		}
		if ranked > rankedBound[m.Name()] {
			t.Errorf("%s: a decision under DND makes %.0f allocations, more than the %.0f measured", m.Name(), ranked, rankedBound[m.Name()])
		}
	}
}
