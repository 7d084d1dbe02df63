package psi

// Engine persistence: SaveSnapshot serializes a dataset engine's full state
// through internal/snapshot's versioned, checksummed container, and
// EngineOptions.Snapshot constructs an engine by loading one — skipping the
// feature extraction that dominates build time, which is what makes
// `psiserve -snapshot` cold starts near-instant. A loaded engine answers
// every query byte-identically to the engine that saved it. Both directions
// are one path for static and mutable engines alike: the file holds the
// state of the store the engine serves from.

import (
	"errors"
	"fmt"
	"slices"

	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/snapshot"
)

// SaveSnapshot writes the engine's dataset, index names and tables and (for
// mutable engines) mutation state to path, atomically: the file appears
// complete or not at all. Mutations are blocked for the duration — the store
// runs the save under its mutation lock, because the exported tables are its
// live ones, which a mutation could retire mid-read — so the file is one
// consistent epoch; queries keep running. NFV engines have no dataset state and cannot be snapshotted.
func (e *Engine) SaveSnapshot(path string) error {
	if e.g != nil {
		return errors.New("psi: snapshots require a dataset engine")
	}
	return e.store.ExportState(func(state live.State) error {
		return snapshot.Save(path, &snapshot.Model{Mutable: e.mutable, State: state})
	})
}

// newSnapshotEngine is the EngineOptions.Snapshot construction path: check
// the options that need nothing from the file, load, cross-check the rest
// against what the snapshot says it is, and restore the store the saved
// engine served from without rebuilding anything.
func newSnapshotEngine(opts EngineOptions) (*Engine, error) {
	// A cross-kind Mode, a misspelt IndexPolicy or index name is the
	// caller's slip, reported before the file is read and decoded; only
	// whether the file's names give fewer than two arms waits for the load.
	if _, err := resolveLaunch(opts, true, 2); err != nil {
		return nil, err
	}
	if len(opts.Indexes) > 0 {
		if err := checkIndexNames(opts.Indexes); err != nil {
			return nil, err
		}
	}
	e := newEngineCommon(opts)
	ixOpts := index.Options{Workers: opts.IndexWorkers, Pool: e.pool}
	m, err := snapshot.Load(opts.Snapshot, ixOpts)
	if err != nil {
		e.Close()
		return nil, err
	}
	fail := func(err error) (*Engine, error) {
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
	store, err := live.Restore(m.State, opts.CompactEvery, ixOpts)
	if err != nil {
		return fail(err)
	}
	e.finishPortfolio(store, opts)
	return e, nil
}
