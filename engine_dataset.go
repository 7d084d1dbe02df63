package psi

// Dataset-engine state: the epoch-versioned dsState behind the engine's
// atomic pointer, the index-portfolio wiring that builds one, the mutation
// API that installs successors, and the per-shard answer tally.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/predict"
)

// GraphHandle is the stable public identity of a dataset graph on a mutable
// engine: assigned by AddGraph (initial graphs get 1..n in dataset order),
// it survives every mutation and compaction, unlike the dense answer graph
// IDs, which shift as earlier graphs are deleted.
type GraphHandle = live.Handle

// ErrUnknownGraph reports a mutation against a GraphHandle the engine never
// issued or has already removed. Match with errors.Is.
var ErrUnknownGraph = live.ErrUnknownHandle

// dsState is one epoch of a dataset engine's query-serving state: the dense
// dataset, the index portfolio over it and the one racer every query of the
// epoch streams through, all from one store snapshot, whose release returns
// the underlying sub-indexes to the store's refcounting. It is immutable once
// installed; queries acquire it with a refcount for the duration of one
// execution, so a mutation installing a successor never tears resources out
// from under an in-flight query.
type dsState struct {
	epoch   uint64 // 0 on static engines
	ds      []*Graph
	handles []GraphHandle // nil on static engines
	indexes []FilterIndex
	racer   *core.IndexRacer

	refs    atomic.Int64
	once    sync.Once
	dispose func()
}

// unref drops one reference; the last one disposes the state's resources
// (racer attempt pools, and the sub-indexes via the store snapshot's
// refcounts).
func (st *dsState) unref() {
	if st.refs.Add(-1) == 0 {
		st.once.Do(st.dispose)
	}
}

// acquireState takes a reference on the current dataset state, retrying
// around a concurrent swap exactly like live.Store.Current. Nil for NFV
// engines (and after Close).
func (e *Engine) acquireState() *dsState {
	for {
		st := e.dsst.Load()
		if st == nil {
			return nil
		}
		st.refs.Add(1)
		if e.dsst.Load() == st {
			return st
		}
		st.unref()
	}
}

// configurePortfolio validates the index-kind portfolio and policy, and
// records whether the mutation API is open, before any build or load is paid
// for: extracting the features of a large dataset several times over only to
// report a misspelt option would be hostile — including an unknown kind
// *after* valid ones, which must not cost the preceding builds first.
// Duplicate kinds are rejected rather than deduplicated: racing an index
// against an identical copy of itself is never what the caller meant.
func (e *Engine) configurePortfolio(opts EngineOptions, kinds []string) error {
	registered := index.Kinds()
	seenKind := map[string]bool{}
	for _, kind := range kinds {
		if seenKind[kind] {
			return fmt.Errorf("psi: duplicate index kind %q in portfolio %v", kind, kinds)
		}
		seenKind[kind] = true
		if !slices.Contains(registered, kind) {
			return fmt.Errorf("psi: unknown index kind %q (registered: %v)", kind, registered)
		}
	}
	switch opts.IndexPolicy {
	case "", IndexRace:
		e.policy = launchRace
	case IndexFixed:
		e.policy = launchFirst
	case IndexAuto:
		e.policy = launchAuto
	default:
		return fmt.Errorf("psi: unknown index policy %q (want %q, %q or %q)", opts.IndexPolicy, IndexRace, IndexFixed, IndexAuto)
	}
	if len(kinds) < 2 {
		// One index is nothing to race or to learn over.
		e.policy = launchFirst
	}
	e.kinds = kinds
	e.rewrites = engineRewritings(opts)
	e.mutable = opts.Mutable
	return nil
}

// finishPortfolio records the portfolio arm names and arms the auto-policy
// bandit once the first state is installed.
func (e *Engine) finishPortfolio(opts EngineOptions) {
	indexes := e.dsst.Load().indexes
	for _, x := range indexes {
		e.ixNames = append(e.ixNames, x.Name())
	}
	if e.policy == launchAuto {
		e.bandit = predict.NewBandit(e.ixNames, banditOptions(opts))
	}
}

// adoptStore makes store the engine's dataset — recording the partition
// count of a sharded one (K <= 1 leaves the engine monolithic) and sizing its
// per-shard answer tally — and installs the state of its current epoch.
func (e *Engine) adoptStore(store *live.Store) {
	e.store = store
	if k := store.Shards(); k > 1 {
		e.shardK = k
		e.shardEmits = make([]atomic.Int64, k)
	}
	e.refreshState()
}

// refreshState publishes the query-serving state of the store's newest
// snapshot: the dataset, the portfolio and the racer over it — one per
// epoch, which is what keeps the rewrite frequencies consistent with the
// current dataset. A static engine's state carries epoch 0 and no handles,
// whatever its store counts. Disposing the state, once the last query is
// done with it, returns the snapshot to the store's refcounts; the engine's
// reference to the predecessor is dropped here, and it lives on until its
// last in-flight query unrefs it. Caller holds mutMu (or is a constructor).
func (e *Engine) refreshState() {
	snap := e.store.Current()
	st := &dsState{ds: snap.Graphs(), indexes: make([]FilterIndex, 0, len(e.kinds))}
	if e.mutable {
		st.epoch, st.handles = snap.Epoch(), snap.Handles()
	}
	for _, kind := range e.kinds {
		st.indexes = append(st.indexes, snap.Index(kind))
	}
	st.racer = core.NewIndexRacer(st.indexes, e.rewrites)
	st.racer.Pool = e.pool
	st.dispose = func() {
		st.racer.Close()
		snap.Release()
	}
	st.refs.Store(1)
	if old := e.dsst.Swap(st); old != nil {
		old.unref()
	}
}

// ShardBalance returns a copy of the per-shard answer tally of a sharded
// dataset engine: how many containing graph IDs each shard has contributed
// across all executed queries (nil when monolithic). Every engine-executed
// query counts, repeats included — the tally tracks query traffic over each
// shard's data; only answers a serving layer replays from its own result
// cache (which never reach the engine) are absent. Safe to call while
// queries are in flight.
func (e *Engine) ShardBalance() []int64 {
	if e.shardK < 2 {
		return nil
	}
	out := make([]int64, e.shardK)
	for i := range out {
		out[i] = e.shardEmits[i].Load()
	}
	return out
}

// tallyShardID attributes one answer graph ID to the shard that owns it; a
// no-op for monolithic engines.
func (e *Engine) tallyShardID(graphID int) {
	if e.shardK >= 2 {
		e.shardEmits[index.ShardOf(graphID, e.shardK)].Add(1)
	}
}

// AddGraph ingests g into a mutable dataset engine, returning its stable
// handle. The owning shard's sub-indexes absorb it incrementally where the
// kind supports it (the flat path index) and by shard-local rebuild
// otherwise; either way the epoch bumps and queries planned after the
// return see the new graph, while queries already executing finish on the
// epoch they started.
func (e *Engine) AddGraph(ctx context.Context, g *Graph) (GraphHandle, error) {
	if err := e.requireMutable(); err != nil {
		return 0, err
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	h, err := e.store.Add(ctx, g)
	if err != nil {
		return 0, err
	}
	e.counters.GraphsAdded.Add(1)
	e.refreshState()
	return h, nil
}

// RemoveGraph deletes the graph behind h from a mutable dataset engine —
// O(1) on the index side (a tombstone) until the owning shard accumulates
// enough of them to trigger a shard-local compaction, which the returned
// flag reports.
func (e *Engine) RemoveGraph(ctx context.Context, h GraphHandle) (compacted bool, err error) {
	if err := e.requireMutable(); err != nil {
		return false, err
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	compacted, err = e.store.Remove(ctx, h)
	if err != nil {
		return false, err
	}
	e.counters.GraphsRemoved.Add(1)
	if compacted {
		e.counters.Compactions.Add(1)
	}
	e.refreshState()
	return compacted, nil
}

// ReplaceGraph swaps the graph behind h for g in place on a mutable dataset
// engine: same handle, same shard, rebuilt shard-locally.
func (e *Engine) ReplaceGraph(ctx context.Context, h GraphHandle, g *Graph) error {
	if err := e.requireMutable(); err != nil {
		return err
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	if err := e.store.Replace(ctx, h, g); err != nil {
		return err
	}
	e.counters.GraphsReplaced.Add(1)
	e.refreshState()
	return nil
}

func (e *Engine) requireMutable() error {
	if !e.mutable {
		return errors.New("psi: mutations require a dataset engine built with EngineOptions.Mutable")
	}
	return nil
}
