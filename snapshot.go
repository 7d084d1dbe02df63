package psi

// Engine persistence: SaveSnapshot serializes a dataset engine's full state
// through internal/snapshot's versioned, checksummed container, and
// EngineOptions.Snapshot constructs an engine by loading one — skipping the
// feature extraction that dominates build time, which is what makes
// `psiserve -snapshot` cold starts near-instant. A loaded engine answers
// every query byte-identically to the engine that saved it.

import (
	"errors"
	"fmt"
	"slices"

	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/snapshot"
)

// SaveSnapshot writes the engine's dataset, index portfolio and (for
// mutable engines) mutation state to path, atomically: the file appears
// complete or not at all. Mutations are blocked for the duration on mutable
// engines — the serialized state is one consistent epoch. NFV engines have
// no dataset state and cannot be snapshotted.
func (e *Engine) SaveSnapshot(path string) error {
	if e.g != nil {
		return errors.New("psi: snapshots require a dataset engine")
	}
	if e.store != nil {
		// Hold the mutation lock across the whole save: the exported grid
		// aliases the store's live sub-indexes, and a concurrent mutation
		// could retire (and, once snapshots drain, close) one mid-read.
		e.mutMu.Lock()
		defer e.mutMu.Unlock()
		state, err := e.store.ExportState()
		if err != nil {
			return err
		}
		handles := make([]int64, len(state.Handles))
		for i, h := range state.Handles {
			handles[i] = int64(h)
		}
		tombs := make([]int32, len(state.Tombs))
		for i, tc := range state.Tombs {
			tombs[i] = int32(tc)
		}
		return snapshot.Save(path, &snapshot.Model{
			Mutable:    true,
			Shards:     state.Shards,
			Kinds:      state.Kinds,
			Epoch:      state.Epoch,
			NextHandle: int64(state.NextHandle),
			Graphs:     state.SlotGraphs,
			Alive:      state.Alive,
			Handles:    handles,
			Tombs:      tombs,
			Indexes:    state.Grid,
		})
	}
	st := e.acquireState()
	if st == nil {
		return errors.New("psi: engine closed")
	}
	defer st.unref()
	shards := 1
	grid := make(map[string][]index.Index, len(e.kinds))
	for i, kind := range e.kinds {
		if sh, ok := st.indexes[i].(*index.Sharded); ok {
			subs := sh.Subs()
			shards = len(subs) // every kind shards identically
			grid[kind] = subs
		} else {
			grid[kind] = []index.Index{st.indexes[i]}
		}
	}
	return snapshot.Save(path, &snapshot.Model{
		Shards:  shards,
		Kinds:   e.kinds,
		Graphs:  st.ds,
		Indexes: grid,
	})
}

// newSnapshotEngine is the EngineOptions.Snapshot construction path: load,
// cross-check the options against what the snapshot says it is, and wire
// the restored indexes into a serving engine without rebuilding anything.
func newSnapshotEngine(opts EngineOptions) (*Engine, error) {
	e, err := newEngineCommon(opts)
	if err != nil {
		return nil, err
	}
	m, err := snapshot.Load(opts.Snapshot, index.Options{
		Workers: opts.IndexWorkers,
		Pool:    e.pool,
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	closeModel := func() {
		for _, subs := range m.Indexes {
			for _, sub := range subs {
				sub.Close()
			}
		}
	}
	fail := func(err error) (*Engine, error) {
		closeModel()
		e.Close()
		return nil, err
	}
	// The snapshot dictates dataset, portfolio, shard count and mode;
	// non-zero options must agree — a silent divergence here would serve
	// answers from a different index than the caller configured.
	if opts.Mutable != m.Mutable {
		return fail(fmt.Errorf("psi: snapshot %s is mutable=%v, options say mutable=%v", opts.Snapshot, m.Mutable, opts.Mutable))
	}
	if opts.Shards != 0 && opts.Shards != m.Shards {
		return fail(fmt.Errorf("psi: snapshot %s has %d shards, options say %d", opts.Snapshot, m.Shards, opts.Shards))
	}
	if len(opts.Indexes) > 0 {
		want := append([]string(nil), opts.Indexes...)
		got := append([]string(nil), m.Kinds...)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(want, got) {
			return fail(fmt.Errorf("psi: snapshot %s indexes %v, options say %v", opts.Snapshot, m.Kinds, opts.Indexes))
		}
	}
	if err := e.configurePortfolio(opts, m.Kinds); err != nil {
		return fail(err)
	}
	if m.Mutable {
		handles := make([]live.Handle, len(m.Handles))
		for i, h := range m.Handles {
			handles[i] = live.Handle(h)
		}
		tombs := make([]int, len(m.Tombs))
		for i, tc := range m.Tombs {
			tombs[i] = int(tc)
		}
		store, serr := live.Restore(live.State{
			Kinds:      m.Kinds,
			Shards:     m.Shards,
			Epoch:      m.Epoch,
			NextHandle: live.Handle(m.NextHandle),
			SlotGraphs: m.Graphs,
			Alive:      m.Alive,
			Handles:    handles,
			Tombs:      tombs,
			Grid:       m.Indexes,
		}, opts.CompactEvery, index.Options{
			Workers: opts.IndexWorkers,
			Pool:    e.pool,
		})
		if serr != nil {
			return fail(serr)
		}
		e.adoptStore(store)
	} else {
		e.setShards(m.Shards)
		var indexes []FilterIndex
		for _, kind := range m.Kinds {
			if subs := m.Indexes[kind]; len(subs) > 1 {
				indexes = append(indexes, index.NewShardedFrom(m.Graphs, kind, subs))
			} else {
				indexes = append(indexes, subs[0])
			}
		}
		e.installStatic(m.Graphs, indexes)
	}
	e.finishPortfolio(opts)
	return e, nil
}
