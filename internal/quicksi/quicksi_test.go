package quicksi

import (
	"context"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
)

func storedGraph() *graph.Graph {
	// labels: 0 appears 4×, 1 appears 2×, 2 appears 1×
	return graph.MustNew("g", []graph.Label{0, 0, 0, 0, 1, 1, 2},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {1, 4}})
}

func TestName(t *testing.T) {
	m := New(storedGraph())
	if m.Name() != "QSI" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Graph() == nil {
		t.Error("Graph accessor")
	}
}

func TestIndexFrequencies(t *testing.T) {
	m := New(storedGraph())
	if m.lblFreq[0] != 4 || m.lblFreq[1] != 2 || m.lblFreq[2] != 1 {
		t.Errorf("label frequencies = %v", m.lblFreq)
	}
	// edge (5,6) has labels (1,2); edge (6,0) labels (0,2)
	if m.edgeFreq[edgeKey(1, 2, 0)] != 1 {
		t.Errorf("edgeFreq(1,2) = %d", m.edgeFreq[edgeKey(1, 2, 0)])
	}
	if m.edgeFreq[edgeKey(0, 0, 0)] != 3 {
		// edges (0,1),(1,2),(2,3) all have label pair (0,0)
		t.Errorf("edgeFreq(0,0) = %d", m.edgeFreq[edgeKey(0, 0, 0)])
	}
}

func TestEdgeKeyCanonical(t *testing.T) {
	if edgeKey(3, 1, 5) != edgeKey(1, 3, 5) {
		t.Error("edgeKey must be endpoint-order-insensitive")
	}
	if edgeKey(1, 3, 5) == edgeKey(1, 3, 6) {
		t.Error("edgeKey must distinguish edge labels")
	}
}

// plan invariants: every query vertex appears exactly once; the root(s) have
// parent -1; each non-root's parent appears earlier and is adjacent; the
// tree edges and the edges back to earlier non-parents cover each query edge
// once.
func TestPlanInvariants(t *testing.T) {
	m := New(storedGraph())
	q := graph.MustNew("q", []graph.Label{0, 0, 1, 2},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	p := m.plan(q)
	if len(p.Order) != q.N() {
		t.Fatalf("plan has %d entries, want %d", len(p.Order), q.N())
	}
	pos := make(map[int32]int)
	edges := 0
	for i, u := range p.Order {
		if _, dup := pos[u]; dup {
			t.Fatalf("vertex %d appears twice in plan", u)
		}
		pos[u] = i
		if parent := p.Anchor[i]; parent >= 0 {
			at, ok := pos[parent]
			if !ok || at >= i {
				t.Fatalf("entry %d: parent %d not placed earlier", i, parent)
			}
			if !q.HasEdge(int(u), int(parent)) {
				t.Fatalf("tree edge (%d,%d) not in query", u, parent)
			}
		}
		for _, w := range q.Neighbors(int(u)) {
			if at, ok := pos[w]; ok && at < i {
				edges++
			}
		}
	}
	if edges != q.M() {
		t.Errorf("plan covers %d edges, query has %d", edges, q.M())
	}
	// root must be the rarest-label vertex: label 2 (freq 1) is vertex 3
	if p.Order[0] != 3 || p.Anchor[0] != -1 {
		t.Errorf("root = %d (parent %d), want vertex 3 (rarest label)", p.Order[0], p.Anchor[0])
	}
}

func TestPlanHandlesDisconnectedQuery(t *testing.T) {
	m := New(storedGraph())
	q := graph.MustNew("q", []graph.Label{0, 0, 1, 1},
		[][2]int{{0, 1}, {2, 3}})
	p := m.plan(q)
	if len(p.Order) != 4 {
		t.Fatalf("plan entries = %d", len(p.Order))
	}
	roots := 0
	for _, parent := range p.Anchor {
		if parent < 0 {
			roots++
		}
	}
	if roots != 2 {
		t.Errorf("expected 2 roots for 2 components, got %d", roots)
	}
}

func TestMatchSimple(t *testing.T) {
	g := storedGraph()
	m := New(g)
	q := graph.MustNew("q", []graph.Label{1, 2}, [][2]int{{0, 1}})
	embs, err := m.Match(context.Background(), q, 100)
	if err != nil {
		t.Fatal(err)
	}
	// only edge (5,6) matches labels (1,2): one orientation valid
	if len(embs) != 1 {
		t.Fatalf("got %d embeddings, want 1: %v", len(embs), embs)
	}
	if embs[0][0] != 5 || embs[0][1] != 6 {
		t.Errorf("embedding = %v, want [5 6]", embs[0])
	}
}

func TestMatchDegreeFilter(t *testing.T) {
	// query vertex with degree 3 cannot map into a path graph
	g := graph.MustNew("path", []graph.Label{0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	q := graph.MustNew("star", []graph.Label{0, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	embs, err := New(g).Match(context.Background(), q, 10)
	if err != nil || len(embs) != 0 {
		t.Errorf("star should not embed in path: %v, %v", embs, err)
	}
}
