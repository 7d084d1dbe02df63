package match

import (
	"context"

	"github.com/psi-graph/psi/internal/graph"
)

// Reference is a deliberately naive backtracking matcher used as the ground
// truth in cross-validation tests: it enumerates query vertices in ID order
// and tries every label-compatible stored vertex with only adjacency and
// injectivity checks. It has no pruning beyond correctness, so it is slow
// but obviously right.
type Reference struct {
	g *graph.Graph
}

// NewReference builds a reference matcher over stored graph g.
func NewReference(g *graph.Graph) *Reference {
	return &Reference{g: g}
}

// Name implements Matcher.
func (r *Reference) Name() string { return "REF" }

// Match implements Matcher by collecting the stream into a slice.
func (r *Reference) Match(ctx context.Context, q *graph.Graph, limit int) ([]Embedding, error) {
	return CollectMatch(ctx, r, q, limit)
}

// MatchStream implements StreamMatcher by exhaustive backtracking.
func (r *Reference) MatchStream(ctx context.Context, q *graph.Graph, limit int, sink Sink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	col := newCollector(limit, sink)
	if q.N() == 0 {
		return col.finish(col.found(Embedding{}))
	}
	if q.N() > r.g.N() {
		return nil
	}
	budget := NewBudget(ctx)
	emb := make(Embedding, q.N())
	for i := range emb {
		emb[i] = -1
	}
	used := make([]bool, r.g.N())
	var rec func(u int) error
	rec = func(u int) error {
		if u == q.N() {
			return col.found(emb)
		}
		for _, v := range r.g.VerticesWithLabel(q.Label(u)) {
			if err := budget.Step(); err != nil {
				return err
			}
			if used[v] {
				continue
			}
			ok := true
			for _, w := range q.Neighbors(u) {
				if int(w) < u && !r.g.HasEdgeLabeled(int(emb[w]), int(v), q.EdgeLabel(u, int(w))) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			emb[u] = v
			used[v] = true
			if err := rec(u + 1); err != nil {
				return err
			}
			used[v] = false
			emb[u] = -1
		}
		return nil
	}
	return col.finish(rec(0))
}
