package psi

// Dataset-engine wiring: the index-portfolio set-up around the live.Store
// every dataset engine serves from (whose snapshots are the epochs), the
// mutation API that commits through it, and the per-shard answer tally.

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	e.mutable = opts.Mutable
	return nil
}

// finishPortfolio makes the built or restored store the engine's dataset:
// the partition count of a sharded one (K <= 1 leaves the engine monolithic)
// with its per-shard answer tally, the arm names, the one index racer every
// epoch's queries share and, under the auto policy, the bandit.
func (e *Engine) finishPortfolio(store *live.Store, opts EngineOptions) {
	e.store = store
	if k := store.Shards(); k > 1 {
		e.shardK = k
		e.shardEmits = make([]atomic.Int64, k)
	}
	for _, x := range store.Current().Indexes() {
		e.ixNames = append(e.ixNames, x.Name())
	}
	e.ixRacer = &core.IndexRacer{Rewritings: engineRewritings(opts), Pool: e.pool}
	if e.policy == launchAuto {
		e.bandit = predict.NewBandit(e.ixNames, banditOptions(opts))
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
	h, err := e.store.Add(ctx, g)
	if err != nil {
		return 0, err
	}
	e.counters.GraphsAdded.Add(1)
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
	compacted, err = e.store.Remove(ctx, h)
	if err != nil {
		return false, err
	}
	e.counters.GraphsRemoved.Add(1)
	if compacted {
		e.counters.Compactions.Add(1)
	}
	return compacted, nil
}

// ReplaceGraph swaps the graph behind h for g in place on a mutable dataset
// engine: same handle, same shard, rebuilt shard-locally.
func (e *Engine) ReplaceGraph(ctx context.Context, h GraphHandle, g *Graph) error {
	if err := e.requireMutable(); err != nil {
		return err
	}
	if err := e.store.Replace(ctx, h, g); err != nil {
		return err
	}
	e.counters.GraphsReplaced.Add(1)
	return nil
}

func (e *Engine) requireMutable() error {
	if !e.mutable {
		return errors.New("psi: mutations require a dataset engine built with EngineOptions.Mutable")
	}
	return nil
}
