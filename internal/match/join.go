package match

import (
	"context"

	"github.com/psi-graph/psi/internal/graph"
)

// Plan is what one backtracking matcher contributes to the join (§3.1.2 of
// the paper: the algorithms differ in candidate filtering, matching order and
// pruning): the order in which query vertices are placed, where each one's
// candidates come from, and the matcher's own pruning rule. It is built on the
// query as a rewriting's ranking presents it and renumbered onto the caller's.
type Plan struct {
	// Order[d] is the query vertex placed at depth d.
	Order []int32
	// Anchor[d] is a query vertex placed before depth d and adjacent to
	// Order[d]: Order[d]'s candidates are the neighbours of its image. -1
	// draws them from Cand, or from every stored vertex with Order[d]'s label.
	Anchor []int32
	// Cand, when set, holds per query vertex the stored vertices it may be
	// placed on.
	Cand []VertexSet
	// Admit, when set, is the matcher's pruning rule: it sees every candidate
	// v for query vertex u that passed the join's own tests.
	Admit func(s *Search, u int, v int32) bool

	placed []int32 // per query vertex: 1 once placed
}

// Planner is a matcher that runs on the join: all it contributes is its plan.
type Planner interface {
	// Graph returns the stored graph the matcher was built on.
	Graph() *graph.Graph
	// Plan returns the matcher's plan for q, spending b on whatever candidate
	// filtering it does. A plan with no Order says q has no embedding.
	Plan(q *graph.Graph, b *Budget) (Plan, error)
}

// Ranked runs m's search for q under a rewriting's vertex ranking: rank[u] is
// the ID rewrite.Compute gives q's vertex u (nil: q as given). m plans on
// q.MustPermute(rank), and the join runs that plan renumbered onto q: up to
// limit embeddings of q (limit <= 0: a decision), in q's numbering, go to
// sink in the order and after the step count of m's search of the permuted
// query. within, when set, confines the search to the stored subgraph it
// induces. A ranking can reorder a search, never change its answer set.
func Ranked(ctx context.Context, m Planner, q *graph.Graph, rank graph.Permutation, within VertexSet, limit int, sink Sink) error {
	s, err := begin(ctx, q, m.Graph(), limit, sink)
	if s == nil {
		return err
	}
	presented := q
	if rank != nil {
		presented = q.MustPermute(rank)
	}
	p, err := m.Plan(presented, &s.budget)
	if p.Order == nil || err != nil {
		return err
	}
	if rank != nil { // the permuted query's vertex rank[u] is q's u
		inv := rank.Inverse()
		for d, u := range p.Order {
			p.Order[d] = int32(inv[u])
			if a := p.Anchor[d]; a >= 0 {
				p.Anchor[d] = int32(inv[a])
			}
		}
		if p.Cand != nil {
			cand := make([]VertexSet, len(rank))
			for u, r := range rank {
				cand[u] = p.Cand[r]
			}
			p.Cand = cand
		}
	}
	return s.run(p, within)
}

// NewPlan returns an empty plan for a query of n vertices, carved from one
// allocation.
func NewPlan(n int) Plan {
	buf := make([]int32, 3*n)
	return Plan{Order: buf[:0:n], Anchor: buf[n : n : 2*n], placed: buf[2*n:]}
}

// Place puts query vertex u at the next depth with the given anchor (-1 for
// none).
func (p *Plan) Place(u, anchor int32) {
	p.Order = append(p.Order, u)
	p.Anchor = append(p.Anchor, anchor)
	p.placed[u] = 1
}

// Placed reports whether u has been placed.
func (p *Plan) Placed(u int32) bool { return p.placed[u] != 0 }

// FirstPlaced returns u's first placed neighbour in q's adjacency order, or
// -1: the anchor VF2 and GraphQL give a vertex.
func (p *Plan) FirstPlaced(q *graph.Graph, u int32) int32 {
	for _, w := range q.Neighbors(int(u)) {
		if p.Placed(w) {
			return w
		}
	}
	return -1
}

// Search is one run of the backtracking join beneath every matcher but the
// reference: the embedding, which stored vertices are taken, the step budget
// and the collector. Ranked makes one and drives it by the matcher's plan.
type Search struct {
	q, g   *graph.Graph
	budget Budget
	col    collector
	plan   Plan
	emb    Embedding
	// taken says, per stored vertex, why no query vertex may be placed on it
	// now — one is (used), or it lies outside the search's confinement — or 0
	// when one may: one byte to test in the inner loop, confined or not.
	taken []uint8
}

const (
	used = 1 + iota
	outside
)

// budgetHook, when set, sees every search's budget as begin makes it; tests
// read step counts through it.
var budgetHook func(*Budget)

// begin takes the early exits every matcher shares — a cancelled context is
// its error, an empty query has one empty embedding and a query larger than
// the stored graph g has none — and returns nil after one. Otherwise it
// returns the search that will emit up to limit embeddings of q into sink
// (limit <= 0: a decision), whose budget a plan may spend before run.
func begin(ctx context.Context, q, g *graph.Graph, limit int, sink Sink) (*Search, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	col := newCollector(limit, sink)
	if q.N() == 0 {
		return nil, col.finish(col.found(Embedding{}))
	}
	if q.N() > g.N() || q.M() > g.M() {
		return nil, nil
	}
	s := &Search{q: q, g: g, budget: Budget{ctx: ctx}, col: col}
	if budgetHook != nil {
		budgetHook(&s.budget)
	}
	return s, nil
}

// Query returns the query graph.
func (s *Search) Query() *graph.Graph { return s.q }

// Graph returns the stored graph.
func (s *Search) Graph() *graph.Graph { return s.g }

// Image returns the stored vertex query vertex u is placed on, or -1.
func (s *Search) Image(u int32) int32 { return s.emb[u] }

// Free reports whether a query vertex may be placed on stored vertex v: none
// is, and v is within the search's confinement.
func (s *Search) Free(v int32) bool { return s.taken[v] == 0 }

// Used reports whether a query vertex is placed on stored vertex v.
func (s *Search) Used(v int32) bool { return s.taken[v] == used }

// run searches under plan p, confined to within when it is set, and returns
// Ranked's result.
func (s *Search) run(p Plan, within VertexSet) error {
	s.plan = p
	s.emb = make(Embedding, s.q.N())
	for i := range s.emb {
		s.emb[i] = -1
	}
	s.taken = make([]uint8, s.g.N())
	if within != nil {
		for v := range s.taken {
			s.taken[v] = outside
		}
		for v := within.Next(0); v >= 0; v = within.Next(v + 1) {
			s.taken[v] = 0
		}
	}
	return s.col.finish(s.extend(0))
}

// extend places the query vertex at depth and recurses: the one recursive
// backtracking function beneath every matcher. Each candidate costs a budget
// step and must be free, carry u's label and lie in u's candidate set —
// tests made inline, for most candidates fail them — before fits checks the
// rest.
func (s *Search) extend(depth int) error {
	if depth == len(s.plan.Order) {
		return s.col.found(s.emb)
	}
	g, emb, taken := s.g, s.emb, s.taken
	u := s.plan.Order[depth]
	lbl := s.q.Label(int(u))
	var cand VertexSet
	if s.plan.Cand != nil {
		cand = s.plan.Cand[u]
	}
	// The candidates: the anchor's image's neighbours in CSR order, else
	// u's candidate set in ascending order, else every vertex with its label.
	// A set and a list get a loop each: one loop asking which per candidate
	// made VF2 about 8 % slower.
	var list []int32
	switch a := s.plan.Anchor[depth]; {
	case a >= 0:
		list = g.Neighbors(int(emb[a]))
	case cand == nil:
		list = g.VerticesWithLabel(lbl)
	default:
		for v := cand.Next(0); v >= 0; v = cand.Next(v + 1) {
			if err := s.budget.Step(); err != nil {
				return err
			}
			if taken[v] != 0 || g.Label(int(v)) != lbl {
				continue
			}
			if !s.fits(u, v) {
				continue
			}
			emb[u], taken[v] = v, used
			if err := s.extend(depth + 1); err != nil {
				return err
			}
			emb[u], taken[v] = -1, 0
		}
		return nil
	}
	for _, v := range list {
		if err := s.budget.Step(); err != nil {
			return err
		}
		if taken[v] != 0 || g.Label(int(v)) != lbl || (cand != nil && !cand.Has(v)) {
			continue
		}
		if !s.fits(u, v) {
			continue
		}
		emb[u], taken[v] = v, used
		if err := s.extend(depth + 1); err != nil {
			return err
		}
		emb[u], taken[v] = -1, 0
	}
	return nil
}

// fits reports whether v has an edge of the query edge's label to the image
// of every placed neighbour of u, and the plan's own rule admits it.
func (s *Search) fits(u, v int32) bool {
	elabs := s.q.EdgeLabels(int(u))
	for j, w := range s.q.Neighbors(int(u)) {
		if img := s.emb[w]; img >= 0 && !s.g.HasEdgeLabeled(int(img), int(v), elabs[j]) {
			return false
		}
	}
	return s.plan.Admit == nil || s.plan.Admit(s, int(u), v)
}
