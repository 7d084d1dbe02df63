// Package match defines the contract shared by all subgraph-isomorphism
// algorithms in this repository (VF2, QuickSI, GraphQL, sPath and the naive
// reference matcher), the cooperative-cancellation budget that lets the
// Ψ-framework kill losing attempts promptly, and the one backtracking join
// the four algorithms run on, each contributing only its plan and pruning
// rule (join.go). A query rewriting reaches a matcher as a vertex ranking
// under which it plans (Ranked): every search runs on the caller's query.
//
// All matchers solve non-induced subgraph isomorphism on vertex-labeled
// undirected graphs (Definition 3 of the paper): an injective mapping from
// query vertices to stored-graph vertices preserving labels and mapping
// every query edge onto a stored-graph edge.
package match

import (
	"context"
	"fmt"

	"github.com/psi-graph/psi/internal/graph"
)

// Embedding maps each query vertex (by index) to a stored-graph vertex.
type Embedding []int32

// Clone returns a copy of the embedding.
func (e Embedding) Clone() Embedding {
	c := make(Embedding, len(e))
	copy(c, e)
	return c
}

// Matcher matches query graphs against the stored graph it was constructed
// on. Implementations preprocess the stored graph at construction time (the
// "indexing phase" of the NFV methods, §3.1.2) and may be used concurrently
// by multiple goroutines once built.
type Matcher interface {
	// Name returns the algorithm's name as used in the paper's figures
	// (e.g. "GQL", "SPA", "QSI", "VF2").
	Name() string

	// Match returns up to limit embeddings of q in the stored graph.
	// limit <= 0 requests a decision: stop after the first embedding.
	// Match must poll ctx and return ctx.Err() promptly when cancelled;
	// any embeddings found before cancellation are discarded.
	Match(ctx context.Context, q *graph.Graph, limit int) ([]Embedding, error)
}

// Sink receives embeddings as a streaming search finds them. Emit is called
// once per embedding, in discovery order, with a copy the sink may retain.
// Returning false stops the search immediately (a consumer that has seen
// enough — e.g. a decision query, or a race that only needed the first
// result). Sinks are called from the searching goroutine and must not block
// on the search's own completion.
type Sink interface {
	Emit(Embedding) bool
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Embedding) bool

// Emit implements Sink.
func (f SinkFunc) Emit(e Embedding) bool { return f(e) }

// StreamMatcher is the streaming face of a matcher: embeddings are emitted
// into a sink as the search discovers them instead of being materialized in
// a slice. Every matcher in this module implements it; Match is the thin
// collecting wrapper over MatchStream.
type StreamMatcher interface {
	Matcher

	// MatchStream emits up to limit embeddings of q into sink (limit <= 0
	// requests a decision: the search stops after the first embedding).
	// The search also stops, returning nil, when the sink's Emit returns
	// false. Context cancellation surfaces as a non-nil error; embeddings
	// already emitted remain with the sink.
	MatchStream(ctx context.Context, q *graph.Graph, limit int, sink Sink) error
}

// CollectMatch drains m.MatchStream into a slice — the canonical
// implementation of Match on top of MatchStream.
func CollectMatch(ctx context.Context, m StreamMatcher, q *graph.Graph, limit int) ([]Embedding, error) {
	var out []Embedding
	err := m.MatchStream(ctx, q, limit, SinkFunc(func(e Embedding) bool {
		out = append(out, e)
		return true
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream runs m against q in streaming fashion: natively when m implements
// StreamMatcher, otherwise by materializing Match's slice and replaying it
// into the sink. The fallback keeps third-party Matcher implementations
// usable wherever the framework streams (races, the Engine), at the cost of
// first-result latency.
func Stream(ctx context.Context, m Matcher, q *graph.Graph, limit int, sink Sink) error {
	if sm, ok := m.(StreamMatcher); ok {
		return sm.MatchStream(ctx, q, limit, sink)
	}
	embs, err := m.Match(ctx, q, limit)
	if err != nil {
		return err
	}
	for _, e := range embs {
		if !sink.Emit(e) {
			return nil
		}
	}
	return nil
}

// normalizeLimit converts the caller's limit into the effective embedding
// cap: decisions (limit <= 0) stop at the first embedding.
func normalizeLimit(limit int) int {
	if limit <= 0 {
		return 1
	}
	return limit
}

// pollInterval is how many search steps pass between context polls. Small
// enough that a straggler attempt dies within microseconds of cancellation,
// large enough that polling cost is negligible.
const pollInterval = 256

// Budget provides amortized context-cancellation checks to search loops.
type Budget struct {
	ctx     context.Context
	counter uint32
}

// NewBudget wraps ctx for use inside a matcher's recursion.
func NewBudget(ctx context.Context) *Budget { return &Budget{ctx: ctx} }

// Step counts one unit of search work and returns a non-nil error if the
// context has been cancelled or its deadline exceeded. It checks the
// context once every pollInterval steps.
func (b *Budget) Step() error {
	b.counter++
	if b.counter%pollInterval == 0 {
		return b.ctx.Err()
	}
	return nil
}

// Steps reports how many steps have been counted. Tests read it, and so
// will the per-attempt work counts of ROADMAP.md item 1(a).
func (b *Budget) Steps() uint32 { return b.counter }

// VerifyEmbedding checks that emb is a valid non-induced subgraph
// isomorphism of q into g: correct length, injective, label-preserving and
// edge-preserving. Matcher and race tests use it to validate what a search
// returns.
func VerifyEmbedding(q, g *graph.Graph, emb Embedding) error {
	if len(emb) != q.N() {
		return fmt.Errorf("embedding has %d entries, query has %d vertices", len(emb), q.N())
	}
	seen := make(map[int32]int, len(emb))
	for u, v := range emb {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("query vertex %d mapped to out-of-range vertex %d", u, v)
		}
		if prev, dup := seen[v]; dup {
			return fmt.Errorf("vertices %d and %d both mapped to %d (not injective)", prev, u, v)
		}
		seen[v] = u
		if q.Label(u) != g.Label(int(v)) {
			return fmt.Errorf("label mismatch at query vertex %d: %d vs %d", u, q.Label(u), g.Label(int(v)))
		}
	}
	var bad error
	q.LabeledEdges(func(a, b int, l graph.Label) {
		if bad == nil && !g.HasEdgeLabeled(int(emb[a]), int(emb[b]), l) {
			bad = fmt.Errorf("query edge (%d,%d) with label %d not mapped to a same-labeled graph edge", a, b, l)
		}
	})
	return bad
}

// errStop is the internal sentinel used by backtracking searches to unwind
// once the embedding limit has been reached. It never escapes a Match call.
var errStop = fmt.Errorf("match: embedding limit reached")

// collector bridges a backtracking search to a Sink: it clones each
// embedding, enforces the limit, and translates both "limit reached" and
// "sink stopped" into errStop so the search unwinds.
type collector struct {
	limit int
	n     int
	sink  Sink
}

// newCollector returns a collector forwarding up to limit embeddings (after
// normalizeLimit) into sink.
func newCollector(limit int, sink Sink) collector {
	return collector{limit: normalizeLimit(limit), sink: sink}
}

// found emits a copy of emb. It returns errStop when the limit is hit or the
// sink declines further embeddings; the search must propagate the error
// upward to terminate.
func (c *collector) found(emb Embedding) error {
	c.n++
	if !c.sink.Emit(emb.Clone()) {
		return errStop
	}
	if c.n >= c.limit {
		return errStop
	}
	return nil
}

// finish converts a search's terminal error into the MatchStream return
// convention: errStop (limit reached or sink stopped) is a normal
// termination, anything else propagates.
func (c *collector) finish(err error) error {
	if err != nil && err != errStop {
		return err
	}
	return nil
}
