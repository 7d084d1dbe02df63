package grapes

// Snapshot support: Grapes' half of the index.FeatureExporter/RegisterRestorer
// contract. Export is the trie's preorder walk, which emits features in
// exactly the lexicographic order the snapshot format canonicalizes on;
// restore re-inserts them. Both directions preserve the location sets, so a
// restored index prunes verification to the same candidate components as
// the saved one.

import (
	"time"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

func init() {
	index.RegisterRestorer(Kind, restore)
}

// ExportFeatures implements index.FeatureExporter.
func (x *Index) ExportFeatures(visit func(labels []graph.Label, postings []index.FeaturePosting) error) error {
	return x.trie.ExportFeatures(visit)
}

// restore rebuilds a Grapes index from exported features; no path
// enumeration runs.
func restore(ds []*graph.Graph, maxPathLen int, opts index.Options, feats []index.ExportedFeature) (index.Index, error) {
	start := time.Now()
	o := Options{MaxPathLen: maxPathLen, Workers: opts.Workers, Pool: opts.Pool}.withDefaults()
	x := newIndex(ds, o, index.RestoreTrie(ds, feats, true))
	x.stats.BuildTime = time.Since(start)
	return x, nil
}
