package index

// The index-build pipeline. Every build — a single index, a sharded one, a
// dataset engine's kind × shard grid, a shard rebuilt on compaction — is the
// same three steps: extract each dataset
// graph's path features exactly once (with locations iff a requested kind
// reads them), route graph g to shard g mod K, and fold every (kind, shard)
// index from its graphs' features in graph-ID order. Extraction dominates a
// build and is identical across kinds and shards, so its cost no longer
// scales with the portfolio; folding in ID order is what makes every posting
// list born sorted and the output independent of the pool size. Both steps
// fan out on the build's pool: extraction a graph per task, the folds a
// (kind, shard) cell per task.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// Extraction is the input of a fold: the path features of the graphs being
// indexed, extracted once by the pipeline.
type Extraction struct {
	// Features[i] holds the features of dataset graph i, as slots of the
	// label trie its extraction worker walked, which other graphs' features
	// may share. They carry locations iff some kind of the build declared it
	// needs them; a fold must copy whatever it keeps, except location
	// lists, which it may alias (nothing else of the extraction outlives
	// the build).
	Features []*ftv.Features
	// Time is the share of the extraction's wall time charged to these
	// graphs; a fold adds its own duration for Stats.BuildTime.
	Time time.Duration
}

// BuildFunc folds an index of one kind over ds from its graphs' extracted
// features. It does not enumerate paths itself.
type BuildFunc func(ds []*graph.Graph, ex Extraction, opts Options) Index

type builder struct {
	fold      BuildFunc
	locations bool
}

var (
	registryMu sync.RWMutex
	registry   = map[string]builder{}
)

// Register makes a kind's fold available under its name. needsLocations
// declares that the fold reads the features' location lists, which the
// pipeline then extracts. Implementations call it from init; registering a
// duplicate kind panics.
func Register(kind string, fold BuildFunc, needsLocations bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic("index: duplicate kind " + kind)
	}
	registry[kind] = builder{fold: fold, locations: needsLocations}
}

// Kinds lists the registered kinds, sorted.
func Kinds() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BuildGrid is the pipeline: it returns grid[i][s], the index of kinds[i]
// over shard s of ds under shards-way round-robin partitioning (below 1 means
// 1; the count is not clamped to len(ds), so a shard may be empty).
// Extraction fans out on opts.Pool (nil selects the shared default pool) and
// is cancellable through ctx, mid-graph included; the folds then run as one
// exec.Group on the same pool, a cell each, and a fold that panics reaches
// the caller as BuildGrid's error, not as a panic. The output is identical
// for every pool size. Every cell's table then shares one sequence directory
// (ShareDirectory).
func BuildGrid(ctx context.Context, kinds []string, ds []*graph.Graph, shards int, opts Options) ([][]Index, error) {
	builders := make([]builder, len(kinds))
	locations := false
	registryMu.RLock()
	for i, kind := range kinds {
		b, ok := registry[kind]
		if !ok {
			registryMu.RUnlock()
			return nil, fmt.Errorf("index: unknown kind %q (registered: %v)", kind, Kinds())
		}
		builders[i] = b
		locations = locations || b.locations
	}
	registryMu.RUnlock()
	if opts.MaxPathLen <= 0 {
		opts.MaxPathLen = ftv.DefaultMaxPathLen
	}
	k := max(shards, 1)

	start := time.Now()
	feats, err := ftv.ExtractDatasetFeatures(ctx, opts.Pool, ds, opts.MaxPathLen, locations)
	if err != nil {
		return nil, err
	}
	extract := time.Since(start)

	cells := make([]struct {
		ds []*graph.Graph
		ex Extraction
	}, k)
	for g := range ds {
		sh := &cells[ShardOf(g, k)]
		sh.ds = append(sh.ds, ds[g])
		sh.ex.Features = append(sh.ex.Features, feats[g])
	}
	for s := range cells {
		if len(ds) > 0 {
			cells[s].ex.Time = extract * time.Duration(len(cells[s].ds)) / time.Duration(len(ds))
		}
	}
	pool := opts.Pool
	if pool == nil {
		pool = exec.Default()
	}
	grp := pool.NewGroup(ctx)
	grid := make([][]Index, len(kinds))
	for i, b := range builders {
		grid[i] = make([]Index, k)
		for s, sh := range cells {
			grp.Go(func(context.Context) error {
				grid[i][s] = b.fold(sh.ds, sh.ex, opts)
				return nil
			})
		}
	}
	if err := grp.Wait(); err != nil {
		return nil, err
	}
	ShareDirectory(slices.Concat(grid...))
	return grid, nil
}

// Build constructs the monolithic index of the registered kind: the one cell
// of a one-kind, one-shard grid. The build is cancellable through ctx and
// deterministic for any opts.Pool size.
func Build(ctx context.Context, kind string, ds []*graph.Graph, opts Options) (Index, error) {
	grid, err := BuildGrid(ctx, []string{kind}, ds, 1, opts)
	if err != nil {
		return nil, err
	}
	return grid[0][0], nil
}
