package index

// The index names and the build pipeline. There is one index: the flat path
// table (path.go), one per shard, with location sets when the name asks for
// them. A name selects how a candidate is verified over it (verify.go): "ftv"
// and "ggsx" verify against the whole stored graph, and "grapes" within the
// components its location sets leave. Every build — a single index, a
// sharded one, a dataset store's tables, a shard rebuilt on compaction — is
// the same three steps: extract each dataset graph's path features exactly
// once (with locations iff the name reads them), route graph g to shard
// g mod K, and fold every shard's table from its graphs' features in
// graph-ID order. Folding in ID order is what makes every posting list born
// sorted and the output independent of the pool size. Both steps fan out on
// the build's pool: extraction a graph per task, the folds a shard per task.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

const (
	// KindPath names the flat path index, verified against the whole graph.
	KindPath = "ftv"
	// KindGGSX names GGSX: the flat path index under the paper's name for it.
	KindGGSX = "ggsx"
	// KindGrapes names Grapes: the table with location sets, verified within
	// the components they leave.
	KindGrapes = "grapes"
)

// Kinds lists the index names, sorted.
func Kinds() []string { return []string{KindPath, KindGGSX, KindGrapes} }

// checkKind rejects a name outside Kinds.
func checkKind(kind string) error {
	if !slices.Contains(Kinds(), kind) {
		return fmt.Errorf("index: unknown kind %q (known: %v)", kind, Kinds())
	}
	return nil
}

// TableKind is the name the one table of a set of names is built under:
// "grapes" when listed, whose verifier reads locations, else the first name.
func TableKind(kinds []string) string {
	if slices.Contains(kinds, KindGrapes) {
		return KindGrapes
	}
	return kinds[0]
}

// Extraction is the input of a fold: the path features of the graphs being
// indexed, extracted once by the pipeline.
type Extraction struct {
	// Features[i] holds the features of dataset graph i, as slots of the
	// label trie its extraction worker walked, which other graphs' features
	// may share. They carry locations iff the table keeps them; a fold must
	// copy whatever it keeps, except location lists, which it may alias
	// (nothing else of the extraction outlives the build).
	Features []*ftv.Features
	// Time is the share of the extraction's wall time charged to these
	// graphs; a fold adds its own duration for Stats.BuildTime.
	Time time.Duration
}

// BuildTables is the pipeline: it returns the table of kind over every shard
// of ds under shards-way round-robin partitioning (below 1 means 1; the count
// is not clamped to len(ds), so a shard may be empty). Extraction fans out on
// opts.Pool (nil selects the shared default pool) and is cancellable through
// ctx, mid-graph included; the folds then run as one exec.Group on the same
// pool, a shard each, and a fold that panics reaches the caller as
// BuildTables' error, not as a panic. The output is identical for every pool
// size, and the tables share one sequence directory (ShareDirectory).
func BuildTables(ctx context.Context, kind string, ds []*graph.Graph, shards int, opts Options) ([]*Path, error) {
	if err := checkKind(kind); err != nil {
		return nil, err
	}
	if opts.MaxPathLen <= 0 {
		opts.MaxPathLen = ftv.DefaultMaxPathLen
	}
	k := max(shards, 1)

	start := time.Now()
	feats, err := ftv.ExtractDatasetFeatures(ctx, opts.Pool, ds, opts.MaxPathLen, kind == KindGrapes)
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
	tables := make([]*Path, k)
	for s, sh := range cells {
		grp.Go(func(context.Context) error {
			tables[s] = FoldPath(kind, sh.ds, sh.ex, opts)
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		return nil, err
	}
	ShareDirectory(tables)
	return tables, nil
}

// Build constructs the monolithic index of kind: the one table of a
// one-shard build. The build is cancellable through ctx and deterministic for
// any opts.Pool size.
func Build(ctx context.Context, kind string, ds []*graph.Graph, opts Options) (Index, error) {
	tables, err := BuildTables(ctx, kind, ds, 1, opts)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}
