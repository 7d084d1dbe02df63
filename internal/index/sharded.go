package index

// Sharded partitions a dataset into K shards and gives every shard its own
// table — the data-parallel axis the distributed-dataflow line of work adds
// on top of the paper's portfolio axis. The partitioning rule is round-robin over graph IDs (shard of global
// ID g is g mod K, its ID within the shard is g div K): stable, deterministic,
// and balanced to within one graph regardless of dataset order.
//
// Sharded is the one Index implementation, at every K, K = 1 included: the
// streaming filter→verify pipeline and its per-candidate races of verifiers
// and rewritings run over it. Query answers are byte-identical at any K and
// any worker count: filtering decisions are per-graph (a graph survives iff
// it contains every query feature often enough, which no amount of
// partitioning changes), FilterStream merges one posting cursor per shard in
// ascending global-ID order on the caller's goroutine, and verification,
// under any name's verifier, routes each global ID back to the shard that
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

// Sharded is a dataset index partitioned into K per-shard tables and viewed
// through one verifier. Construct with Build or NewShardedFrom; immutable, so
// safe for concurrent queries (a mutation assembles a new Sharded).
type Sharded struct {
	ds     []*graph.Graph // dense: the live graphs in slot order
	tables []*Path
	v      Verifier // what Verify decides with and Name reports
	k      int
	stats  Stats // without names: Stats fills in the verifier's
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

// NewShardedFrom assembles a Sharded view over pre-built per-shard tables,
// BuildTables' output, that verifies with v — also the dataset store's
// (internal/live) entry point, which maintains the tables itself
// (copy-on-write inserts, shard-local rebuilds) and needs the shard count to
// stay fixed across mutations. Unlike Build the shard count is NOT clamped to
// len(slots): a shard may legitimately be empty after deletions or before its
// first ingest. tables[s] must index exactly ShardDataset(slots, s,
// len(tables)).
//
// alive marks the live slots (nil: every slot is); with dead ones the view is
// the dense one of the file comment, its Stats counting only live graphs, in
// total and per shard. A mask that does not cover slots is a caller bug and
// panics, as is a missing table or one of another path length than shard
// 0's: the merge extracts a query's features once for every shard.
//
// The aggregate BuildTime is the sum of the tables': a build charges each
// shard its graphs' share of the shared extraction, so the sum is extraction
// plus the folds. At K = 1 the statistics are the table's own, with no shard
// breakdown.
func NewShardedFrom(slots []*graph.Graph, alive []bool, tables []*Path, v Verifier) *Sharded {
	if alive != nil && len(alive) != len(slots) {
		panic(fmt.Sprintf("index: NewShardedFrom: %d liveness flags for %d slots", len(alive), len(slots)))
	}
	k := len(tables)
	for s, t := range tables {
		if t == nil || t.maxPathLen != tables[0].maxPathLen {
			panic(fmt.Sprintf("index: NewShardedFrom: shard %d has no table at shard 0's path length", s))
		}
	}
	x := &Sharded{ds: slots, k: k, tables: tables, v: v}
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
		x.stats = tables[0].Stats()
		x.stats.Graphs = len(x.ds)
		return x
	}
	x.stats = Stats{
		Kind:       tables[0].kind,
		Graphs:     len(x.ds),
		ShardCount: k,
	}
	for _, t := range tables {
		st := t.Stats()
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
		// A table counts its tombstoned slots too: recount each shard's
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

// Name identifies the configuration by its verifier, e.g. "Grapes/1×4" for
// four shards.
func (x *Sharded) Name() string {
	if x.k == 1 {
		return x.v.Name()
	}
	return fmt.Sprintf("%s×%d", x.v.Name(), x.k)
}

// Using returns the view of x that verifies with v: the same tables, so the
// same filter, under v's name.
func (x *Sharded) Using(v Verifier) *Sharded {
	y := *x
	y.v = v
	return &y
}

// Dataset implements ftv.Index: the live graphs, in global ID order.
func (x *Sharded) Dataset() []*graph.Graph { return x.ds }

// Stats implements Index: the aggregate build shape under the view's name,
// with the per-shard breakdown in Stats.Shards (the shard-balance feed for
// /stats) when K >= 2, each shard named after the verifier.
func (x *Sharded) Stats() Stats {
	st := x.stats
	st.Name = x.Name()
	if st.Shards != nil {
		st.Shards = slices.Clone(st.Shards)
		for s := range st.Shards {
			st.Shards[s].Name = x.v.Name()
		}
	}
	return st
}

// dense returns the dense ID of shard s's local ID, or -1 when its slot is
// tombstoned.
func (x *Sharded) dense(s, local int) int {
	slot := s + local*x.k
	if x.denseOf == nil {
		return slot
	}
	return x.denseOf[slot]
}

// Close implements Index; tables own no resources.
func (x *Sharded) Close() {}

// Verify implements ftv.Index with the view's verifier.
func (x *Sharded) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	return x.VerifyWith(ctx, x.v, q, graphID)
}

// VerifyWith decides dense ID graphID with v by routing it to its slot and
// the slot to its owning shard's table.
func (x *Sharded) VerifyWith(ctx context.Context, v Verifier, q *graph.Graph, graphID int) (bool, error) {
	if graphID < 0 || graphID >= len(x.ds) {
		return false, fmt.Errorf("index: graph ID %d out of range [0,%d)", graphID, len(x.ds))
	}
	slot := graphID
	if x.slots != nil {
		slot = x.slots[graphID]
	}
	return x.tables[ShardOf(slot, x.k)].VerifyWith(ctx, v, q, slot/x.k)
}

// Filter implements ftv.Index: FilterStream collected.
func (x *Sharded) Filter(q *graph.Graph) []int {
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
// head is emitted — so the emission order is the same at any K. Each cursor
// polls ctx once per graph it considers.
func (x *Sharded) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
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
