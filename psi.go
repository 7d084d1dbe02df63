package psi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/gql"
	"github.com/psi-graph/psi/internal/graph"
	indexpkg "github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/metrics"
	"github.com/psi-graph/psi/internal/quicksi"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
	"github.com/psi-graph/psi/internal/vf2"
	"github.com/psi-graph/psi/internal/workload"
)

// Core graph types, re-exported from the internal substrate.
type (
	// Graph is an immutable vertex-labeled undirected graph.
	Graph = graph.Graph
	// Label is a vertex label.
	Label = graph.Label
	// Builder incrementally constructs a Graph.
	Builder = graph.Builder
	// Permutation maps old vertex IDs to new ones (perm[old] = new).
	Permutation = graph.Permutation
	// Stats summarizes a graph (Table 2-style statistics).
	Stats = graph.Stats
	// DatasetStats summarizes a multi-graph dataset (Table 1-style).
	DatasetStats = graph.DatasetStats
)

// Matching types.
type (
	// Embedding maps query vertices to stored-graph vertices.
	Embedding = match.Embedding
	// Matcher is the common contract of all matching algorithms.
	Matcher = match.Matcher
	// Attempt pairs an algorithm with a rewriting for racing.
	Attempt = core.Attempt
	// FilterIndex is the filtering index, one type at every shard count: a
	// path table per shard, with the filter-then-verify core
	// (Name/Dataset/Filter/Verify), streaming candidate emission
	// (FilterStream) and build statistics (Stats). It is built for a name —
	// "ftv", "grapes" or "ggsx" — whose verifier is what its Verify runs and
	// its Name reports; a dataset Engine filters with one table and races
	// the rewritings per candidate under that table's verifier.
	FilterIndex = *indexpkg.Sharded
	// IndexStats describes a built filtering index (build time, feature,
	// posting and location counts, extraction parallelism).
	IndexStats = indexpkg.Stats
	// EngineCounters is a snapshot of an Engine's operational counters
	// (queries, kills, attempt fan-out); see Engine.Counters.
	EngineCounters = metrics.CountersSnapshot
)

// Streaming types, re-exported from the internal substrate.
type (
	// Sink receives embeddings as a streaming search finds them; Emit
	// returning false stops the search.
	Sink = match.Sink
	// SinkFunc adapts a function to the Sink interface.
	SinkFunc = match.SinkFunc
	// StreamMatcher is the streaming face of a Matcher. All matchers
	// built by this module implement it.
	StreamMatcher = match.StreamMatcher
)

// Rewriting identifies one of the paper's query rewritings.
type Rewriting = rewrite.Kind

// The rewritings of §6 of the paper, plus Orig (identity) and Random.
const (
	Orig   = rewrite.Orig
	ILF    = rewrite.ILF
	IND    = rewrite.IND
	DND    = rewrite.DND
	ILFIND = rewrite.ILFIND
	ILFDND = rewrite.ILFDND
	Random = rewrite.Random
)

// StructuredRewritings lists ILF, IND, DND, ILF+IND and ILF+DND in the
// paper's order.
func StructuredRewritings() []Rewriting {
	return append([]Rewriting(nil), rewrite.Structured...)
}

// Algorithm names a subgraph isomorphism algorithm.
type Algorithm string

// The algorithms implemented by this module.
const (
	VF2     Algorithm = "VF2"
	QuickSI Algorithm = "QSI"
	GraphQL Algorithm = "GQL"
	SPath   Algorithm = "SPA"
)

// NewGraph builds a graph from labels and an edge list.
func NewGraph(name string, labels []Label, edges [][2]int) (*Graph, error) {
	return graph.New(name, labels, edges)
}

// MustNewGraph is NewGraph but panics on error; for literals.
func MustNewGraph(name string, labels []Label, edges [][2]int) *Graph {
	return graph.MustNew(name, labels, edges)
}

// NewBuilder starts building a graph with the given name.
func NewBuilder(name string) *Builder { return graph.NewBuilder(name) }

// NewMatcher constructs the named algorithm over stored graph g. The
// algorithm's preprocessing ("indexing phase") happens here; the returned
// matcher is safe for concurrent queries.
func NewMatcher(algo Algorithm, g *Graph) (Matcher, error) {
	if g == nil {
		return nil, errors.New("psi: NewMatcher requires a stored graph")
	}
	return newMatcher(algo, g, nil)
}

// newMatcher is NewMatcher over a non-nil g, with the indexing phases that
// fan out — sPath's batched BFS — on p (nil: exec.Default()).
func newMatcher(algo Algorithm, g *Graph, p *exec.Pool) (Matcher, error) {
	switch algo {
	case VF2:
		return vf2.New(g), nil
	case QuickSI:
		return quicksi.New(g), nil
	case GraphQL:
		return gql.New(g), nil
	case SPath:
		return spath.NewWithRadius(g, spath.DefaultRadius, p), nil
	}
	return nil, fmt.Errorf("psi: unknown algorithm %q", algo)
}

// MustNewMatcher is NewMatcher but panics on an unknown algorithm or a nil
// graph.
func MustNewMatcher(algo Algorithm, g *Graph) Matcher {
	m, err := NewMatcher(algo, g)
	if err != nil {
		panic(err)
	}
	return m
}

// ApplyRewriting returns the rewriting's isomorphic copy of q under label
// frequencies from the stored graph g, and the permutation: q's vertex u is
// the copy's perm[u]. An Engine searches q itself under each rewriting's
// ranking; the copy is for timing a matcher on it, as the paper's §6 does.
func ApplyRewriting(q, g *Graph, k Rewriting) (*Graph, Permutation) {
	perm := rewrite.Compute(q, rewrite.FrequenciesOf(g), k, 0)
	return q.MustPermute(perm), perm
}

// ApplyRandomRewriting permutes q's node IDs uniformly at random under the
// given seed — the instrument of the paper's §5 variance study.
func ApplyRandomRewriting(q *Graph, seed int64) (*Graph, Permutation) {
	perm := rewrite.Compute(q, nil, rewrite.Random, seed)
	return q.MustPermute(perm), perm
}

// VerifyEmbedding checks that emb is a valid non-induced subgraph
// isomorphism of q into g.
func VerifyEmbedding(q, g *Graph, emb Embedding) error {
	return match.VerifyEmbedding(q, g, emb)
}

// CanonicalQueryKey serializes q after a deterministic structure-driven
// vertex ordering — the key of the serving layer's shared result cache and
// of its in-flight query coalescing. It is not a complete
// canonical form (graph canonization is GI-hard): isomorphic queries may
// receive different keys — a missed cache hit, never a wrong one — while
// equal keys always denote identical serialized structures, so exact hits
// are sound.
func CanonicalQueryKey(q *Graph) string { return ftv.CanonicalKey(q) }

// BuildIndex constructs the filtering index of a name ("ftv", "grapes",
// "ggsx") over the whole dataset: the path table, with locations under
// "grapes", verified by the name's verifier (workers is Grapes' W). The build
// is cancellable through ctx and deterministic for every pool size. It is
// NewShardedIndex at one shard.
func BuildIndex(ctx context.Context, kind string, dataset []*Graph, workers int) (FilterIndex, error) {
	return NewShardedIndex(ctx, kind, dataset, 1, workers)
}

// IndexKinds lists the filtering-index names.
func IndexKinds() []string { return indexpkg.Kinds() }

// NewShardedIndex builds a name's filtering index over a K-way round-robin
// partition of the dataset: every shard gets its own table, per-shard
// candidate streams merge in ascending global-ID order, and verification
// routes back to the owning shard — so answers are byte-identical at any
// shard count. shards is clamped to [1, len(dataset)].
func NewShardedIndex(ctx context.Context, kind string, dataset []*Graph, shards, workers int) (FilterIndex, error) {
	return indexpkg.Build(ctx, kind, dataset, shards, indexpkg.Options{Workers: workers})
}

// ComputeStats summarizes one graph.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// ComputeDatasetStats summarizes a dataset.
func ComputeDatasetStats(name string, ds []*Graph) DatasetStats {
	return graph.ComputeDatasetStats(name, ds)
}

// ExtractQuery grows a connected query of wantEdges edges from a random
// vertex of g (the paper's §3.4 workload procedure), using the given seed.
func ExtractQuery(g *Graph, wantEdges int, seed int64) *Graph {
	return workload.Extract(rand.New(rand.NewSource(seed)), g, wantEdges)
}

// Scale selects generated dataset sizes; see the gen package presets.
type Scale = gen.Scale

// Generation scales.
const (
	Tiny   = gen.Tiny
	Small  = gen.Small
	Medium = gen.Medium
	Paper  = gen.Paper
)

// GenerateSynthetic produces a GraphGen-style FTV dataset.
func GenerateSynthetic(scale Scale, seed int64) []*Graph {
	return gen.Synthetic(gen.SyntheticAt(scale), seed)
}

// GeneratePPI produces a protein-interaction-style FTV dataset.
func GeneratePPI(scale Scale, seed int64) []*Graph {
	return gen.PPI(gen.PPIAt(scale), seed)
}

// GenerateYeastLike produces a yeast-shaped NFV stored graph.
func GenerateYeastLike(scale Scale, seed int64) *Graph { return gen.YeastLike(scale, seed) }

// GenerateHumanLike produces a human-shaped NFV stored graph.
func GenerateHumanLike(scale Scale, seed int64) *Graph { return gen.HumanLike(scale, seed) }

// GenerateWordnetLike produces a wordnet-shaped NFV stored graph.
func GenerateWordnetLike(scale Scale, seed int64) *Graph { return gen.WordnetLike(scale, seed) }
