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
// enough, which no amount of partitioning changes), FilterStream merges one
// posting cursor per shard in ascending global-ID order on the caller's
// goroutine, and verification routes each global ID back to the shard that
// owns it. Filtering stays sequential, as the paper's FTV design leaves it:
// the parallelism is in verification.
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

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// Sharded is a dataset index partitioned into K per-shard sub-indexes.
// Construct with BuildSharded or NewShardedFrom; immutable, so safe for
// concurrent queries (a mutation assembles a new Sharded). At K = 1 it is its
// one sub-index under another type: name, statistics and, when no slot is
// dead, filtering all delegate.
type Sharded struct {
	ds     []*graph.Graph // dense: the live graphs in slot order
	shards []Index
	tables []*Path // per shard: the table its sub-index keeps its features in
	k      int
	stats  Stats
	// denseOf maps a slot to its dense ID (-1 when tombstoned) and slots a
	// dense ID back to its slot; both nil when every slot is live, and the
	// slot is then the dense ID.
	denseOf []int
	slots   []int
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
// panics, as is a sub-index that keeps no feature table (every registered
// kind keeps one) or one of another path length than shard 0's: the merge
// extracts a query's features once for every shard.
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
	for s, sub := range subs {
		t, ok := sub.(tabled)
		if !ok || t.Table().MaxPathLen() != subs[0].Stats().MaxPathLen {
			panic(fmt.Sprintf("index: NewShardedFrom: shard %d (%s) keeps no feature table at shard 0's path length", s, sub.Name()))
		}
		x.tables = append(x.tables, t.Table())
	}
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

// dense returns the dense ID of shard s's local ID, or -1 when its slot is
// tombstoned.
func (x *Sharded) dense(s, local int) int {
	slot := s + local*x.k
	if x.denseOf == nil {
		return slot
	}
	return x.denseOf[slot]
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

// Filter implements ftv.Index: FilterStream collected — the same candidate
// set as the monolithic index, because presence/frequency pruning is a
// per-graph decision.
func (x *Sharded) Filter(q *graph.Graph) []int {
	if x.k == 1 && x.denseOf == nil {
		return x.shards[0].Filter(q)
	}
	var out []int
	// The background context never cancels, so the error is always nil.
	_ = x.FilterStream(context.Background(), q, func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// FilterStream implements Index with an ascending-ID ordered merge on the
// caller's goroutine: the query's features are extracted once, one posting
// cursor per shard scans that shard's table, each shard's head is its next
// candidate translated to its dense ID (tombstones skipped), and the minimum
// head is emitted — so the emission order is byte-identical to the monolithic
// index's at any K. Each cursor polls ctx as the monolithic scan does. At
// K = 1 the one sub-index filters, its IDs translated.
func (x *Sharded) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	if x.k == 1 {
		sub := emit
		if x.denseOf != nil {
			sub = func(local int) bool {
				id := x.dense(0, local)
				return id < 0 || emit(id)
			}
		}
		return x.shards[0].FilterStream(ctx, q, sub)
	}
	feats := ftv.QueryFeatures(q, x.stats.MaxPathLen)
	type head struct {
		cur featureCursor
		id  int // the dense ID of the shard's next candidate; -1 once exhausted
	}
	heads := make([]head, x.k)
	pull := func(s int) error {
		h := &heads[s]
		for {
			local, ok, err := h.cur.next(ctx)
			if !ok {
				h.id = -1
				return err
			}
			if h.id = x.dense(s, local); h.id >= 0 {
				return nil
			}
		}
	}
	for s, t := range x.tables {
		heads[s].cur = t.cursor(feats)
		if err := pull(s); err != nil {
			return err
		}
	}
	for {
		min := -1
		for s := range heads {
			if id := heads[s].id; id >= 0 && (min < 0 || id < heads[min].id) {
				min = s
			}
		}
		if min < 0 || !emit(heads[min].id) {
			return nil
		}
		if err := pull(min); err != nil {
			return err
		}
	}
}
