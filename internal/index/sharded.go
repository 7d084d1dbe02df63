package index

// Sharded partitions a dataset into K shards and gives every shard its own
// filtering index of any registered kind — the data-parallel axis the
// distributed-dataflow line of work adds on top of the paper's portfolio
// axis. The partitioning rule is round-robin over graph IDs (shard of global
// ID g is g mod K, its ID within the shard is g div K): stable, deterministic,
// and balanced to within one graph regardless of dataset order.
//
// Sharded implements the same Index contract as the monolithic kinds, so
// everything layered above — the streaming filter→verify pipeline, FTVRacer's
// per-candidate rewriting races, core.IndexRacer's whole-pipeline races —
// composes with it unchanged. Query answers are byte-identical to the
// monolithic index at any K and any worker count: filtering decisions are
// per-graph (a graph survives iff it contains every query feature often
// enough, which no amount of partitioning changes), FilterStream performs an
// ascending-ID ordered merge of the per-shard streams, and verification
// routes each global ID back to the shard that owns it.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// shardStreamBuf is the per-shard channel buffer of the ordered merge: deep
// enough that a shard scanning a candidate-dense region does not stall on a
// merger draining a sparse one, small enough that cancellation never leaves
// much wasted scan work behind.
const shardStreamBuf = 64

// Sharded is a dataset index partitioned into K per-shard sub-indexes.
// Construct with BuildSharded or NewShardedFrom; safe for concurrent queries
// once built. At K = 1 it is its one sub-index under another type: name,
// statistics and filtering all delegate.
type Sharded struct {
	ds     []*graph.Graph
	shards []Index
	k      int
	stats  Stats
	// byFeatures holds the shards as FeatureFilters when every one is, at
	// one path length: a query's features are then extracted once for all
	// of them. Nil otherwise, and every shard filters from the query itself.
	byFeatures []FeatureFilter
}

// FeatureFilter is the capability of the path-feature kinds a Sharded index
// uses to extract a query's features once rather than once per shard:
// FilterFeatures is FilterStream from ftv.QueryFeatures(q, MaxPathLen())
// instead of from q.
type FeatureFilter interface {
	MaxPathLen() int
	FilterFeatures(ctx context.Context, feats []ftv.QueryFeature, emit func(graphID int) bool) error
}

// ShardOf returns the shard owning global graph ID g under K-way round-robin
// partitioning; the ID's position within that shard is g / k.
func ShardOf(g, k int) int { return g % k }

// shardDataset returns the sub-dataset of shard s: every k-th graph starting
// at s, preserving relative (hence ascending-global) order.
func shardDataset(ds []*graph.Graph, s, k int) []*graph.Graph {
	sub := make([]*graph.Graph, 0, (len(ds)-s+k-1)/k)
	for g := s; g < len(ds); g += k {
		sub = append(sub, ds[g])
	}
	return sub
}

// BuildSharded partitions ds into shards round-robin shards and builds one
// index of the registered kind per shard through BuildGrid — a Sharded index
// even at a single shard. The shard count is clamped to len(ds) — a shard
// with no graphs would be dead weight — and to at least 1.
func BuildSharded(ctx context.Context, kind string, ds []*graph.Graph, shards int, opts Options) (*Sharded, error) {
	grid, err := BuildGrid(ctx, []string{kind}, ds, min(shards, len(ds)), opts)
	if err != nil {
		return nil, err
	}
	return NewShardedFrom(ds, kind, grid[0]), nil
}

// NewShardedFrom assembles a Sharded view over pre-built per-shard
// sub-indexes, one row of BuildGrid's output — also the dataset store's
// (internal/live) entry point, which maintains the sub-indexes itself
// (copy-on-write inserts, shard-local rebuilds) and needs the shard count to
// stay fixed across mutations. Unlike BuildSharded the shard count is NOT
// clamped to len(ds): a shard may legitimately be empty after deletions or
// before its first ingest. subs[s] must index exactly
// shardDataset(ds, s, len(subs)); ownership of the sub-indexes stays with the
// caller (Close on the result closes them, as with BuildSharded). The aggregate BuildTime is the sum of
// the sub-indexes': a grid charges each shard its graphs' share of the
// shared extraction, so the sum is extraction plus this kind's folds. At
// K = 1 the statistics are the sub-index's own, with no shard breakdown.
func NewShardedFrom(ds []*graph.Graph, kind string, subs []Index) *Sharded {
	k := len(subs)
	x := &Sharded{ds: ds, k: k, shards: subs}
	if k == 1 {
		x.stats = subs[0].Stats()
		return x
	}
	x.stats = Stats{
		Name:       x.Name(),
		Kind:       kind,
		Graphs:     len(ds),
		ShardCount: k,
	}
	for _, sub := range subs {
		st := sub.Stats()
		x.stats.MaxPathLen = st.MaxPathLen
		x.stats.Features += st.Features
		x.stats.Nodes += st.Nodes
		x.stats.BuildTime += st.BuildTime
		x.stats.Postings += st.Postings
		x.stats.PostingBytes += st.PostingBytes
		x.stats.LocationBytes += st.LocationBytes
		x.stats.LocationRows += st.LocationRows
		x.stats.LocationLists += st.LocationLists
		x.stats.BuildWorkers = st.BuildWorkers
		x.stats.Shards = append(x.stats.Shards, st)
	}
	for _, sub := range subs {
		ff, ok := sub.(FeatureFilter)
		if !ok || ff.MaxPathLen() != x.stats.MaxPathLen {
			x.byFeatures = nil
			break
		}
		x.byFeatures = append(x.byFeatures, ff)
	}
	return x
}

// Name identifies the configuration, e.g. "Grapes/1×4" for four shards.
func (x *Sharded) Name() string {
	if x.k == 1 {
		return x.shards[0].Name()
	}
	return fmt.Sprintf("%s×%d", x.shards[0].Name(), x.k)
}

// Dataset implements ftv.Index: the full dataset, in global ID order.
func (x *Sharded) Dataset() []*graph.Graph { return x.ds }

// Stats implements Index: the aggregate build shape, with the per-shard
// breakdown in Stats.Shards (the shard-balance feed for /stats) when K >= 2.
func (x *Sharded) Stats() Stats { return x.stats }

// Close implements Index, releasing every shard's resources.
func (x *Sharded) Close() {
	for _, sub := range x.shards {
		sub.Close()
	}
}

// Verify implements ftv.Index by routing the global ID to its owning shard.
func (x *Sharded) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if graphID < 0 || graphID >= len(x.ds) {
		return false, fmt.Errorf("index: graph ID %d out of range [0,%d)", graphID, len(x.ds))
	}
	return x.shards[ShardOf(graphID, x.k)].Verify(ctx, q, graphID/x.k)
}

// Filter implements ftv.Index: per-shard filters translated to global IDs
// and merged ascending — the same candidate set as the monolithic index,
// because presence/frequency pruning is a per-graph decision.
func (x *Sharded) Filter(q *graph.Graph) []int {
	if x.k == 1 {
		return x.shards[0].Filter(q)
	}
	var out []int
	if x.byFeatures == nil {
		for s, sub := range x.shards {
			for _, local := range sub.Filter(q) {
				out = append(out, s+local*x.k)
			}
		}
	} else {
		feats := ftv.QueryFeatures(q, x.stats.MaxPathLen)
		for s, sub := range x.byFeatures {
			// The background context never cancels, so the error is always nil.
			_ = sub.FilterFeatures(context.Background(), feats, func(local int) bool {
				out = append(out, s+local*x.k)
				return true
			})
		}
	}
	sort.Ints(out)
	return out
}

// FilterStream implements Index with an ascending-ID ordered merge: every
// shard scans concurrently on its own goroutine, candidates flow through
// per-shard channels, and the merger emits the minimum pending global ID —
// so the emission order is byte-identical to the monolithic index's
// regardless of K, scheduling, or channel timing. emit returning false (or a
// cancelled ctx) cancels the remaining shard scans; FilterStream returns
// only after every shard goroutine has drained, so a query leaves nothing
// behind.
func (x *Sharded) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	if x.k == 1 {
		return x.shards[0].FilterStream(ctx, q, emit)
	}
	mctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chans := make([]chan int, x.k)
	errs := make([]error, x.k) // written before the shard's channel close, read after
	var feats []ftv.QueryFeature
	if x.byFeatures != nil {
		feats = ftv.QueryFeatures(q, x.stats.MaxPathLen)
	}
	var wg sync.WaitGroup
	for s := range x.shards {
		chans[s] = make(chan int, shardStreamBuf)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer close(chans[s])
			emit := func(local int) bool {
				select {
				case chans[s] <- s + local*x.k:
					return true
				case <-mctx.Done():
					return false
				}
			}
			if x.byFeatures != nil {
				errs[s] = x.byFeatures[s].FilterFeatures(mctx, feats, emit)
			} else {
				errs[s] = x.shards[s].FilterStream(mctx, q, emit)
			}
		}(s)
	}
	// The merge itself: hold one pending head per live shard, repeatedly
	// emit the minimum. A closing shard hands over its error; the first
	// shard failure cancels the rest rather than emitting past it.
	var (
		heads   = make([]int, x.k)
		live    = make([]bool, x.k)
		stopped bool
		ferr    error
	)
	pull := func(s int) bool {
		id, open := <-chans[s]
		if !open {
			live[s] = false
			if errs[s] != nil && ferr == nil {
				ferr = errs[s]
			}
			return false
		}
		heads[s], live[s] = id, true
		return true
	}
	for s := range chans {
		pull(s)
	}
	for ferr == nil {
		min := -1
		for s, ok := range live {
			if ok && (min < 0 || heads[s] < heads[min]) {
				min = s
			}
		}
		if min < 0 {
			break
		}
		if !emit(heads[min]) {
			stopped = true
			break
		}
		pull(min)
	}
	cancel()
	// Unblock shards parked on a full channel, then wait them out; without
	// the drain a shard could write to a channel nobody reads again.
	for s := range chans {
		go func(s int) {
			for range chans[s] {
			}
		}(s)
	}
	wg.Wait()
	switch {
	case stopped:
		return nil
	case ferr != nil && ctx.Err() == nil:
		return ferr
	case ctx.Err() != nil:
		// A truncated scan must not read as a completed empty one.
		return ctx.Err()
	default:
		return nil
	}
}
