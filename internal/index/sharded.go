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
//
// With the alive mask of a dataset store (internal/live), which tombstones a
// deleted graph's slot rather than renumber, Sharded is also the dense view
// queries are answered from: the one translation takes shard s's local ID l
// to slot s + l·K, drops a dead slot and renumbers a live one to its rank
// among the live slots. Rank order preserves ascending order, so answers are
// byte-identical to a from-scratch build over the live graphs.

import (
	"context"
	"fmt"
	"slices"
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
// Construct with BuildSharded or NewShardedFrom; immutable, so safe for
// concurrent queries (a mutation assembles a new Sharded). At K = 1 it is its
// one sub-index under another type: name, statistics and, when no slot is
// dead, filtering all delegate.
type Sharded struct {
	ds     []*graph.Graph // dense: the live graphs in slot order
	shards []Index
	k      int
	stats  Stats
	// denseOf maps a slot to its dense ID (-1 when tombstoned) and slots a
	// dense ID back to its slot; both nil when every slot is live, and the
	// slot is then the dense ID.
	denseOf []int
	slots   []int
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

// ShardDataset returns the sub-dataset of shard s under K-way round-robin
// partitioning: every k-th graph starting at s, preserving relative (hence
// ascending-global) order — the partition the snapshot loader restores.
func ShardDataset(ds []*graph.Graph, s, k int) []*graph.Graph {
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
	return NewShardedFrom(ds, nil, kind, grid[0]), nil
}

// NewShardedFrom assembles a Sharded view over pre-built per-shard
// sub-indexes, one row of BuildGrid's output — also the dataset store's
// (internal/live) entry point, which maintains the sub-indexes itself
// (copy-on-write inserts, shard-local rebuilds) and needs the shard count to
// stay fixed across mutations. Unlike BuildSharded the shard count is NOT
// clamped to len(slots): a shard may legitimately be empty after deletions
// or before its first ingest. subs[s] must index exactly
// ShardDataset(slots, s, len(subs)); ownership of the sub-indexes stays with
// the caller (Close on the result closes them, as with BuildSharded).
//
// alive marks the live slots (nil: every slot is); with dead ones the view is
// the dense one of the file comment, its Stats counting only live graphs, in
// total and per shard. A mask that does not cover slots is a caller bug and
// panics.
//
// The aggregate BuildTime is the sum of the sub-indexes': a grid charges each
// shard its graphs' share of the shared extraction, so the sum is extraction
// plus this kind's folds. At K = 1 the statistics are the sub-index's own,
// with no shard breakdown.
func NewShardedFrom(slots []*graph.Graph, alive []bool, kind string, subs []Index) *Sharded {
	if alive != nil && len(alive) != len(slots) {
		panic(fmt.Sprintf("index: NewShardedFrom: %d liveness flags for %d slots", len(alive), len(slots)))
	}
	k := len(subs)
	x := &Sharded{ds: slots, k: k, shards: subs}
	if slices.Contains(alive, false) {
		x.ds = make([]*graph.Graph, 0, len(slots))
		x.denseOf = make([]int, len(slots))
		for slot, ok := range alive {
			x.denseOf[slot] = -1
			if ok {
				x.denseOf[slot] = len(x.ds)
				x.slots = append(x.slots, slot)
				x.ds = append(x.ds, slots[slot])
			}
		}
	}
	if k == 1 {
		x.stats = subs[0].Stats()
		x.stats.Graphs = len(x.ds)
		return x
	}
	x.stats = Stats{
		Name:       x.Name(),
		Kind:       kind,
		Graphs:     len(x.ds),
		ShardCount: k,
	}
	for _, sub := range subs {
		st := sub.Stats()
		x.stats.MaxPathLen = st.MaxPathLen
		x.stats.Features += st.Features
		x.stats.BuildTime += st.BuildTime
		x.stats.Postings += st.Postings
		x.stats.PostingBytes += st.PostingBytes
		x.stats.LocationBytes += st.LocationBytes
		x.stats.LocationRows += st.LocationRows
		x.stats.LocationLists += st.LocationLists
		x.stats.BuildWorkers = st.BuildWorkers
		x.stats.Shards = append(x.stats.Shards, st)
	}
	if x.slots != nil {
		// A sub-index counts its tombstoned slots too: recount each shard's
		// live graphs so the shards sum to Graphs.
		for s := range x.stats.Shards {
			x.stats.Shards[s].Graphs = 0
		}
		for _, slot := range x.slots {
			x.stats.Shards[ShardOf(slot, k)].Graphs++
		}
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

// Dataset implements ftv.Index: the live graphs, in global ID order.
func (x *Sharded) Dataset() []*graph.Graph { return x.ds }

// Stats implements Index: the aggregate build shape, with the per-shard
// breakdown in Stats.Shards (the shard-balance feed for /stats) when K >= 2.
func (x *Sharded) Stats() Stats { return x.stats }

// translate turns emit, which takes global dense IDs, into the emit of shard
// s, which yields the shard's local IDs; a tombstone is skipped and the scan
// goes on.
func (x *Sharded) translate(s int, emit func(id int) bool) func(local int) bool {
	return func(local int) bool {
		slot := s + local*x.k
		if x.denseOf == nil {
			return emit(slot)
		}
		return x.denseOf[slot] < 0 || emit(x.denseOf[slot])
	}
}

// Close implements Index, releasing every shard's resources.
func (x *Sharded) Close() {
	for _, sub := range x.shards {
		sub.Close()
	}
}

// Verify implements ftv.Index by routing the dense ID to its slot and the
// slot to its owning shard.
func (x *Sharded) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if graphID < 0 || graphID >= len(x.ds) {
		return false, fmt.Errorf("index: graph ID %d out of range [0,%d)", graphID, len(x.ds))
	}
	slot := graphID
	if x.slots != nil {
		slot = x.slots[graphID]
	}
	return x.shards[ShardOf(slot, x.k)].Verify(ctx, q, slot/x.k)
}

// Filter implements ftv.Index: per-shard filters translated to global IDs
// and merged ascending — the same candidate set as the monolithic index,
// because presence/frequency pruning is a per-graph decision.
func (x *Sharded) Filter(q *graph.Graph) []int {
	if x.k == 1 && x.denseOf == nil {
		return x.shards[0].Filter(q)
	}
	var out []int
	keep := func(id int) bool {
		out = append(out, id)
		return true
	}
	if x.byFeatures == nil {
		for s, sub := range x.shards {
			emit := x.translate(s, keep)
			for _, local := range sub.Filter(q) {
				emit(local)
			}
		}
	} else {
		feats := ftv.QueryFeatures(q, x.stats.MaxPathLen)
		for s, sub := range x.byFeatures {
			// The background context never cancels, so the error is always nil.
			_ = sub.FilterFeatures(context.Background(), feats, x.translate(s, keep))
		}
	}
	sort.Ints(out)
	return out
}

// FilterStream implements Index with an ascending-ID ordered merge: every
// shard scans concurrently on its own goroutine, candidates flow through
// per-shard channels, and the merger emits the minimum pending global ID —
// so the emission order is byte-identical to the monolithic index's
// regardless of K, scheduling, or channel timing. Each shard drops its
// tombstones and translates before sending, so the merge only ever sees dense
// IDs. emit returning false (or a cancelled ctx) cancels the remaining shard
// scans; FilterStream returns only after every shard goroutine has drained,
// so a query leaves nothing behind.
func (x *Sharded) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	if x.k == 1 {
		if x.denseOf != nil {
			emit = x.translate(0, emit)
		}
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
			emit := x.translate(s, func(id int) bool {
				select {
				case chans[s] <- id:
					return true
				case <-mctx.Done():
					return false
				}
			})
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
