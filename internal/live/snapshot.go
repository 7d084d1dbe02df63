package live

// Persistence support: ExportState captures everything the on-disk snapshot
// format needs to reconstruct the store — the slot-space dataset, liveness,
// handles, tombstone counters, epoch/handle counters and the per-shard
// tables — and Restore is its inverse over tables freshly rebuilt by the
// snapshot loader. A restored store continues exactly
// where the saved one stopped: same epoch (so epoch-keyed caches never serve
// stale answers), same handles (so clients' references stay valid), same
// tombstone counts (so compaction triggers on schedule).

import (
	"fmt"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// State is the serializable shape of a Store at one epoch.
type State struct {
	// Kinds and Shards mirror the Options the store was created with: the
	// names served, and the shard count.
	Kinds  []string
	Shards int
	// Epoch is the committed mutation epoch; NextHandle the next handle to
	// issue.
	Epoch      uint64
	NextHandle Handle
	// SlotGraphs is the full slot space, zero-vertex placeholders at dead
	// slots; Alive and Handles are parallel to it. Tombs is the per-shard
	// tombstone count since the last compaction.
	SlotGraphs []*graph.Graph
	Alive      []bool
	Handles    []Handle
	Tombs      []int
	// Tables holds the K per-shard tables, built under
	// index.TableKind(Kinds). On export these are the store's LIVE tables,
	// which the next mutation may retire; ExportState therefore hands them
	// only to a callback that runs under the mutation lock. On restore, the
	// store adopts them.
	Tables []*index.Path
}

// ExportState hands the mutation state to save under the mutation lock, so
// no mutation commits while save reads it: one consistent epoch, however
// long the save takes. save must not keep the State past its return, nor
// mutate the store: that would wait on the lock it runs under. ExportState
// fails once the store is closed, else returns save's error.
func (st *Store) ExportState(save func(State) error) error {
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	if st.closed {
		return fmt.Errorf("live: store closed")
	}
	return save(State{
		Kinds:      append([]string(nil), st.kinds...),
		Shards:     st.k,
		Epoch:      st.epoch.Load(),
		NextHandle: st.nextHandle,
		SlotGraphs: append([]*graph.Graph(nil), st.slotGraphs...),
		Alive:      append([]bool(nil), st.alive...),
		Handles:    append([]Handle(nil), st.handleOf...),
		Tombs:      append([]int(nil), st.tombs...),
		Tables:     append([]*index.Path(nil), st.tables...),
	})
}

// Restore reconstructs a store from a deserialized State. The tables are
// adopted as-is; each must be built under index.TableKind(Kinds) and index
// exactly its shard's slot-space sub-dataset, the partition the snapshot
// loader rebuilds by construction. They are given one shared sequence
// directory, as a build gives them (index.ShareDirectory). compactEvery and ixOpts play the roles they have in
// Options — runtime knobs, not persisted layout. The first snapshot is
// installed at the saved epoch.
func Restore(state State, compactEvery int, ixOpts index.Options) (*Store, error) {
	if state.Shards < 1 {
		return nil, fmt.Errorf("live: restore: shard count %d < 1", state.Shards)
	}
	if len(state.Kinds) == 0 {
		return nil, fmt.Errorf("live: restore: no index kinds")
	}
	n := len(state.SlotGraphs)
	if len(state.Alive) != n || len(state.Handles) != n {
		return nil, fmt.Errorf("live: restore: slot arrays disagree (%d graphs, %d alive, %d handles)", n, len(state.Alive), len(state.Handles))
	}
	if len(state.Tombs) != state.Shards {
		return nil, fmt.Errorf("live: restore: %d tombstone counters for %d shards", len(state.Tombs), state.Shards)
	}
	if len(state.Tables) != state.Shards {
		return nil, fmt.Errorf("live: restore: %d tables for %d shards", len(state.Tables), state.Shards)
	}
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	kind := index.TableKind(state.Kinds)
	v, err := index.NewVerifier(kind, ixOpts)
	if err != nil {
		return nil, fmt.Errorf("live: restore: %w", err)
	}
	st := &Store{
		kinds:        append([]string(nil), state.Kinds...),
		k:            state.Shards,
		compactEvery: compactEvery,
		ixOpts:       ixOpts,
		placeholder:  graph.NewBuilder("live:dead-slot").MustBuild(),
		slotGraphs:   append([]*graph.Graph(nil), state.SlotGraphs...),
		alive:        append([]bool(nil), state.Alive...),
		handleOf:     append([]Handle(nil), state.Handles...),
		byHandle:     make(map[Handle]int, n),
		local:        make([][]*graph.Graph, state.Shards),
		tombs:        append([]int(nil), state.Tombs...),
		kind:         kind,
		v:            v,
		nextHandle:   state.NextHandle,
	}
	for slot := 0; slot < n; slot++ {
		shard := index.ShardOf(slot, st.k)
		st.local[shard] = append(st.local[shard], st.slotGraphs[slot])
		h := st.handleOf[slot]
		if h <= 0 {
			return nil, fmt.Errorf("live: restore: slot %d has non-positive handle %d", slot, h)
		}
		if h >= st.nextHandle {
			return nil, fmt.Errorf("live: restore: slot %d handle %d >= next handle %d (would reissue)", slot, h, st.nextHandle)
		}
		if !st.alive[slot] {
			continue
		}
		if prev, dup := st.byHandle[h]; dup {
			return nil, fmt.Errorf("live: restore: handle %d owned by slots %d and %d", h, prev, slot)
		}
		st.byHandle[h] = slot
		st.liveCount++
	}
	st.tables = append([]*index.Path(nil), state.Tables...)
	for s, t := range st.tables {
		if t == nil {
			return nil, fmt.Errorf("live: restore: shard %d has no table", s)
		}
		if got := t.Stats().Kind; got != st.kind {
			return nil, fmt.Errorf("live: restore: shard %d holds a %s table, %v are served from a %s one", s, got, st.kinds, st.kind)
		}
		if got, want := len(t.Dataset()), len(st.local[s]); got != want {
			return nil, fmt.Errorf("live: restore: shard %d indexes %d graphs, shard holds %d", s, got, want)
		}
	}
	index.ShareDirectory(st.tables)
	if state.NextHandle < 1 {
		return nil, fmt.Errorf("live: restore: next handle %d < 1", state.NextHandle)
	}
	if state.Epoch < 1 {
		return nil, fmt.Errorf("live: restore: epoch %d < 1", state.Epoch)
	}
	st.installLocked(state.Epoch)
	return st, nil
}
