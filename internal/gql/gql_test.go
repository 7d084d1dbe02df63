package gql

import (
	"context"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
)

func newTestBudget() *match.Budget { return match.NewBudget(context.Background()) }

// search runs m's search of q up to limit embeddings and fails the test on
// an error.
func search(t *testing.T, m *Matcher, q *graph.Graph, limit int) []match.Embedding {
	t.Helper()
	embs, err := m.Match(context.Background(), q, limit)
	if err != nil {
		t.Fatal(err)
	}
	return embs
}

func TestName(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0}, nil)
	m := New(g)
	if m.Name() != "GQL" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Graph() != g {
		t.Error("Graph accessor")
	}
	if m.refine != DefaultRefineLevel {
		t.Errorf("default refine = %d", m.refine)
	}
}

func TestSignature(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 2, 1, 2, 5}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}})
	sig := signatures(g)
	want := [][]graph.Label{{1, 2, 2}, {0, 2}, {0}, {0, 2}, {}}
	for v, w := range want {
		if got := signature(g, sig, v); !slices.Equal(got, w) {
			t.Errorf("signature(%d) = %v, want %v (sorted)", v, got, w)
		}
	}
	if len(sig) != 2*g.M() {
		t.Errorf("slab holds %d labels, want one per neighbour-list entry (%d)", len(sig), 2*g.M())
	}
}

func TestSigContains(t *testing.T) {
	cases := []struct {
		super, sub []graph.Label
		want       bool
	}{
		{[]graph.Label{1, 2, 2, 3}, []graph.Label{2, 3}, true},
		{[]graph.Label{1, 2, 2, 3}, []graph.Label{2, 2}, true},
		{[]graph.Label{1, 2, 3}, []graph.Label{2, 2}, false},
		{[]graph.Label{1, 2, 3}, []graph.Label{4}, false},
		{[]graph.Label{1, 2, 3}, nil, true},
		{nil, []graph.Label{1}, false},
		{nil, nil, true},
	}
	for _, c := range cases {
		if got := sigContains(c.super, c.sub); got != c.want {
			t.Errorf("sigContains(%v, %v) = %v, want %v", c.super, c.sub, got, c.want)
		}
	}
}

// Refinement must kill candidates whose neighbourhood cannot host the query
// vertex's neighbourhood even when labels and degrees match.
func TestRefinementPrunes(t *testing.T) {
	// g: center 0 (label 0) with neighbors labeled 1,1 — and center 4
	// (label 0) with neighbors labeled 1,2.
	g := graph.MustNew("g", []graph.Label{0, 1, 1, 99, 0, 1, 2},
		[][2]int{{0, 1}, {0, 2}, {4, 5}, {4, 6}})
	// q: center (label 0) with neighbors 1,2 — only vertex 4 qualifies.
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {0, 2}})
	if embs := search(t, New(g), q, 10); len(embs) != 1 || embs[0][0] != 4 {
		t.Errorf("embeddings = %v, want center mapped to 4", embs)
	}
}

// The bipartite feasibility check must handle the case where a greedy
// assignment fails but an augmenting path succeeds: two query neighbours
// both preferring the same graph neighbour.
func TestNeighborhoodFeasibleAugmenting(t *testing.T) {
	// g: v has neighbors a (label 1) and b (label 1).
	// q: u has neighbors x (label 1), y (label 1). Feasible: both distinct.
	g := graph.MustNew("g", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}})
	q := graph.MustNew("q", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}})
	if embs := search(t, New(g), q, 10); len(embs) != 2 {
		t.Errorf("got %d embeddings, want 2 (swap of the two leaves)", len(embs))
	}
}

func TestInfeasibleNeighborhood(t *testing.T) {
	// q center needs two distinct label-1 neighbours; g center has only one.
	g := graph.MustNew("g", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {0, 2}})
	q := graph.MustNew("q", []graph.Label{0, 1, 1}, [][2]int{{0, 1}, {0, 2}})
	if embs := search(t, New(g), q, 10); len(embs) != 0 {
		t.Errorf("infeasible query matched: %v", embs)
	}
}

func TestSearchOrderStartsAtSmallestCandidateList(t *testing.T) {
	// Vertex with unique label (2) has the smallest candidate list.
	g := graph.MustNew("g", []graph.Label{0, 0, 0, 0, 2},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	q := graph.MustNew("q", []graph.Label{0, 0, 2}, [][2]int{{0, 1}, {1, 2}})
	cand, err := New(g).candidates(q, newTestBudget())
	if err != nil || cand == nil {
		t.Fatalf("candidates: %v %v", cand, err)
	}
	order := searchOrder(q, cand).Order
	for u := range cand {
		if cand[u].Len() < cand[order[0]].Len() {
			t.Errorf("search order %v does not start at a minimal candidate set (sizes %d vs %d)",
				order, cand[order[0]].Len(), cand[u].Len())
		}
	}
	// order must be connected: each subsequent vertex adjacent to prefix
	for i, u := range order[1:] {
		if !slices.ContainsFunc(q.Neighbors(int(u)), func(w int32) bool { return slices.Contains(order[:i+1], w) }) {
			t.Errorf("order %v breaks connectivity at %d", order, u)
		}
	}
}

func TestRefineLevelZeroStillCorrect(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1, 0, 1}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	// edges (0,1),(1,2),(2,3): label-(0,1) oriented matches: (0,1),(2,1),(2,3) = 3
	if embs := search(t, NewWithRefinement(g, 0), q, 100); len(embs) != 3 {
		t.Errorf("got %d embeddings, want 3", len(embs))
	}
}
