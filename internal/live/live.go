// Package live is the dataset store every dataset engine serves from: the
// kind × shard grid of sub-indexes over one dataset, published as immutable
// epoch snapshots that queries race over. An engine that never mutates its
// store serves one snapshot for its lifetime; one that does ingests, deletes
// and replaces graphs while queries keep racing. The design leans on the
// same observation the distributed-dataflow line of work uses for
// partition-local updates: under the round-robin sharding of PR 5, one graph
// lives in exactly one shard, so one mutation touches exactly one per-shard
// sub-index per kind and leaves the other K-1 untouched.
//
// # Slots, tombstones, epochs
//
// Every graph ever added occupies a permanent "slot" in a global slot space;
// slot s lives in shard s mod K at local position s div K, so appending a
// graph always appends to the tail of its shard's local dataset (slot
// assignment is monotone), which is what lets an index kind implementing
// index.Inserter ingest copy-on-write instead of rebuilding. Deletion never
// renumbers — renumbering would move graphs across shards and globalize the
// mutation — it tombstones the slot; the sub-index keeps the dead graph's
// features until the shard's tombstone count reaches the compaction
// threshold, at which point that shard (and only that shard) is rebuilt over
// its live graphs plus zero-vertex placeholders that keep local numbering
// stable. Queries see none of this: a snapshot's index of each kind is an
// index.Sharded under the store's alive mask, whose one translation from
// shard-local IDs renumbers live slots densely and skips tombstones, so
// answers are byte-identical to a from-scratch build over the live graphs.
//
// Every committed mutation bumps a monotonically increasing epoch and
// installs a new immutable Snapshot behind an atomic pointer: the one epoch
// object a dataset engine serves from, which carries everything a query
// reads, so the engine keeps no per-epoch state. A query takes a snapshot
// with one atomic load and keeps reading it to completion regardless of
// concurrent mutations — snapshot isolation with no locks on the query path;
// mutations and exports serialize on one lock. No sub-index owns a resource,
// so a snapshot needs no release: the garbage collector reclaims a retired
// epoch once its last reader lets go of it.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
)

// DefaultCompactEvery is the per-shard tombstone count that triggers a
// shard-local rebuild when Options.CompactEvery is unset.
const DefaultCompactEvery = 8

// Handle is the stable public identity of an added graph: it survives every
// mutation and compaction (unlike the dense query-answer IDs, which shift as
// earlier graphs are deleted) and is the argument of Remove and Replace.
type Handle int64

// ErrUnknownHandle reports a mutation against a handle the store never
// issued or has already removed. Callers match it with errors.Is.
var ErrUnknownHandle = errors.New("live: unknown handle")

// Options configures NewStore.
type Options struct {
	// Kinds lists the index kinds maintained per shard (at least one).
	Kinds []string
	// Shards is the fixed shard count K; unlike index.BuildSharded it is
	// NOT clamped to the initial dataset size, because a mutated dataset
	// grows (a caller whose dataset never does clamps K itself). <= 0
	// means 1.
	Shards int
	// CompactEvery is the per-shard tombstone threshold that triggers a
	// shard-local rebuild; <= 0 means DefaultCompactEvery.
	CompactEvery int
	// Index carries the per-sub-index build options (MaxPathLen, Workers,
	// Pool).
	Index index.Options
}

// Snapshot is one immutable epoch of the store: the dense live dataset, its
// handles, one dense index per kind and the dataset's label frequencies, all
// computed once at install. Obtain with Store.Current. All accessors are
// safe for concurrent use.
type Snapshot struct {
	epoch   uint64
	graphs  []*graph.Graph
	handles []Handle
	indexes []index.Index
	freqs   rewrite.Frequencies
}

// Epoch returns the snapshot's dataset epoch (1 for the initial build).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Graphs returns the dense live dataset, in slot (hence insertion) order.
func (s *Snapshot) Graphs() []*graph.Graph { return s.graphs }

// Handles returns the public handle of each dense graph, parallel to
// Graphs: Handles()[i] is the handle of answer ID i at this epoch.
func (s *Snapshot) Handles() []Handle { return s.handles }

// Indexes returns the dense filtering index of every kind, in the order of
// Options.Kinds (an engine's portfolio order). Each is a view over the
// store's sub-indexes, shared with other epochs: callers never Close them.
func (s *Snapshot) Indexes() []index.Index { return s.indexes }

// Frequencies returns the label frequencies of the dense dataset, the input
// of the ILF rewriting.
func (s *Snapshot) Frequencies() rewrite.Frequencies { return s.freqs }

// Store is the dataset store. Mutations (Add, Remove, Replace) and
// ExportState are serialized internally, on one lock; Current and the
// snapshots it returns are lock-free and safe for any number of concurrent
// readers.
type Store struct {
	kinds        []string
	k            int
	compactEvery int
	ixOpts       index.Options
	placeholder  *graph.Graph

	// Mutation state, guarded by mutMu. Slices handed to snapshots are
	// never written in place after install: Remove/Replace copy before
	// writing, Add appends past every published length.
	mutMu      sync.Mutex
	slotGraphs []*graph.Graph   // slot space; placeholders at dead slots
	alive      []bool           // slot space
	handleOf   []Handle         // slot space
	byHandle   map[Handle]int   // live handles → slot
	local      [][]*graph.Graph // per-shard slot-space datasets
	tombs      []int            // per-shard tombstones since last rebuild
	grid       map[string][]index.Index
	nextHandle Handle
	liveCount  int
	closed     bool

	epoch atomic.Uint64
	cur   atomic.Pointer[Snapshot]
}

// NewStore builds the initial sub-index grid over ds (epoch 1). The graphs
// get handles 1..len(ds) in dataset order.
func NewStore(ctx context.Context, ds []*graph.Graph, opts Options) (*Store, error) {
	if len(opts.Kinds) == 0 {
		return nil, fmt.Errorf("live: no index kinds")
	}
	k := opts.Shards
	if k < 1 {
		k = 1
	}
	compact := opts.CompactEvery
	if compact <= 0 {
		compact = DefaultCompactEvery
	}
	st := &Store{
		kinds:        append([]string(nil), opts.Kinds...),
		k:            k,
		compactEvery: compact,
		ixOpts:       opts.Index,
		placeholder:  graph.NewBuilder("live:dead-slot").MustBuild(),
		byHandle:     make(map[Handle]int, len(ds)),
		local:        make([][]*graph.Graph, k),
		tombs:        make([]int, k),
		grid:         make(map[string][]index.Index, len(opts.Kinds)),
		nextHandle:   1,
		liveCount:    len(ds),
	}
	for slot, g := range ds {
		st.slotGraphs = append(st.slotGraphs, g)
		st.alive = append(st.alive, true)
		h := st.nextHandle
		st.nextHandle++
		st.handleOf = append(st.handleOf, h)
		st.byHandle[h] = slot
		shard := index.ShardOf(slot, k)
		st.local[shard] = append(st.local[shard], g)
	}
	grid, err := index.BuildGrid(ctx, st.kinds, ds, k, st.ixOpts)
	if err != nil {
		return nil, fmt.Errorf("live: building the index grid: %w", err)
	}
	for i, kind := range st.kinds {
		st.grid[kind] = grid[i]
	}
	st.installLocked(1)
	return st, nil
}

// Shards reports the fixed shard count K.
func (st *Store) Shards() int { return st.k }

// Epoch reports the current dataset epoch without acquiring a snapshot.
func (st *Store) Epoch() uint64 { return st.epoch.Load() }

// Current returns the current snapshot, or nil after Close.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// installLocked builds a snapshot of the present mutation state at the
// given epoch and publishes it. Caller holds mutMu (or is NewStore, before
// the store escapes).
func (st *Store) installLocked(epoch uint64) {
	dense := make([]*graph.Graph, 0, st.liveCount)
	handles := make([]Handle, 0, st.liveCount)
	for slot, ok := range st.alive {
		if ok {
			dense = append(dense, st.slotGraphs[slot])
			handles = append(handles, st.handleOf[slot])
		}
	}
	indexes := make([]index.Index, 0, len(st.kinds))
	for _, kind := range st.kinds {
		// commitShard replaces rows, never writes them: the view may keep one.
		indexes = append(indexes, index.NewShardedFrom(st.slotGraphs, st.alive, kind, st.grid[kind]))
	}
	st.epoch.Store(epoch)
	st.cur.Store(&Snapshot{epoch: epoch, graphs: dense, handles: handles, indexes: indexes, freqs: rewrite.FrequenciesOfDataset(dense)})
}

// Add ingests g, assigning it the next slot (hence the tail of shard
// slot mod K) and a fresh handle. Sub-indexes implementing index.Inserter
// absorb it copy-on-write; the rest rebuild shard-locally. On error the
// store is unchanged.
func (st *Store) Add(ctx context.Context, g *graph.Graph) (Handle, error) {
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	if st.closed {
		return 0, fmt.Errorf("live: store closed")
	}
	slot := len(st.slotGraphs)
	shard := index.ShardOf(slot, st.k)
	newLocal := append(append([]*graph.Graph(nil), st.local[shard]...), g)
	fresh, err := st.rebuildShard(ctx, shard, newLocal, func(cur index.Index) (index.Index, error) {
		if ins, ok := cur.(index.Inserter); ok {
			return ins.WithGraph(ctx, g)
		}
		return nil, errNoInserter
	})
	if err != nil {
		return 0, err
	}
	h := st.nextHandle
	st.nextHandle++
	st.slotGraphs = append(st.slotGraphs, g)
	st.alive = append(st.alive, true)
	st.handleOf = append(st.handleOf, h)
	st.byHandle[h] = slot
	st.local[shard] = newLocal
	st.liveCount++
	st.commitShard(shard, fresh)
	st.installLocked(st.epoch.Load() + 1)
	return h, nil
}

// Remove tombstones the graph behind h — O(1) on the index side — and, once
// the owning shard accumulates CompactEvery tombstones, compacts it with a
// shard-local rebuild that sheds the dead graphs' features. Reports whether
// this call compacted. On error the store is unchanged.
func (st *Store) Remove(ctx context.Context, h Handle) (compacted bool, err error) {
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	if st.closed {
		return false, fmt.Errorf("live: store closed")
	}
	slot, ok := st.byHandle[h]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrUnknownHandle, h)
	}
	shard := index.ShardOf(slot, st.k)
	newLocal := append([]*graph.Graph(nil), st.local[shard]...)
	newLocal[slot/st.k] = st.placeholder
	var fresh map[string]index.Index
	if st.tombs[shard]+1 >= st.compactEvery {
		fresh, err = st.rebuildShard(ctx, shard, newLocal, nil)
		if err != nil {
			return false, err
		}
		compacted = true
	}
	newSlots := append([]*graph.Graph(nil), st.slotGraphs...)
	newSlots[slot] = st.placeholder
	newAlive := append([]bool(nil), st.alive...)
	newAlive[slot] = false
	st.slotGraphs, st.alive = newSlots, newAlive
	delete(st.byHandle, h)
	st.local[shard] = newLocal
	st.liveCount--
	if compacted {
		st.tombs[shard] = 0
		st.commitShard(shard, fresh)
	} else {
		st.tombs[shard]++
	}
	st.installLocked(st.epoch.Load() + 1)
	return compacted, nil
}

// Replace swaps the graph behind h for g in place — same slot, same handle,
// same shard — rebuilding the owning shard's sub-indexes. On error the
// store is unchanged.
func (st *Store) Replace(ctx context.Context, h Handle, g *graph.Graph) error {
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	if st.closed {
		return fmt.Errorf("live: store closed")
	}
	slot, ok := st.byHandle[h]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownHandle, h)
	}
	shard := index.ShardOf(slot, st.k)
	newLocal := append([]*graph.Graph(nil), st.local[shard]...)
	newLocal[slot/st.k] = g
	fresh, err := st.rebuildShard(ctx, shard, newLocal, nil)
	if err != nil {
		return err
	}
	newSlots := append([]*graph.Graph(nil), st.slotGraphs...)
	newSlots[slot] = g
	st.slotGraphs = newSlots
	st.local[shard] = newLocal
	st.commitShard(shard, fresh)
	st.installLocked(st.epoch.Load() + 1)
	return nil
}

// errNoInserter is the sentinel an incremental path returns to fall back to
// a full shard rebuild.
var errNoInserter = fmt.Errorf("live: kind does not support incremental insert")

// rebuildShard produces the replacement sub-index of every kind for one
// shard without touching store state, so a failure aborts the mutation
// cleanly. incremental, when non-nil, is tried first per kind and may
// return errNoInserter; the kinds it leaves over are rebuilt over newLocal
// together, from one feature extraction, and a rebuilt index keeps sharing
// its predecessor's sequence directory when that holds every sequence it
// indexes (index.AdoptDirectory).
func (st *Store) rebuildShard(ctx context.Context, shard int, newLocal []*graph.Graph, incremental func(cur index.Index) (index.Index, error)) (map[string]index.Index, error) {
	fresh := make(map[string]index.Index, len(st.kinds))
	var rebuild []string
	for _, kind := range st.kinds {
		if incremental == nil {
			rebuild = append(rebuild, kind)
			continue
		}
		sub, err := incremental(st.grid[kind][shard])
		switch {
		case err == errNoInserter:
			rebuild = append(rebuild, kind)
		case err != nil:
			return nil, fmt.Errorf("live: incremental %s update of shard %d: %w", kind, shard, err)
		default:
			fresh[kind] = sub
		}
	}
	if len(rebuild) > 0 {
		grid, err := index.BuildGrid(ctx, rebuild, newLocal, 1, st.ixOpts)
		if err != nil {
			return nil, fmt.Errorf("live: rebuilding %v shard %d: %w", rebuild, shard, err)
		}
		for i, kind := range rebuild {
			index.AdoptDirectory(grid[i][0], st.grid[kind][shard])
			fresh[kind] = grid[i][0]
		}
	}
	return fresh, nil
}

// commitShard swaps the freshly built sub-indexes into the grid; snapshots
// of earlier epochs keep reading the ones it replaces.
func (st *Store) commitShard(shard int, fresh map[string]index.Index) {
	for kind, sub := range fresh {
		subs := append([]index.Index(nil), st.grid[kind]...)
		subs[shard] = sub
		st.grid[kind] = subs
	}
}

// Close rejects further mutations and unpublishes the current snapshot, so
// Current returns nil from then on. Snapshots already taken keep answering.
func (st *Store) Close() {
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	st.closed = true
	st.cur.Store(nil)
}
