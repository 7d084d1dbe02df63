package ggsx

// Snapshot support: GGSX's half of the index.FeatureExporter/RegisterRestorer
// contract. Every node of the suffix trie that carries counts is itself an
// indexed feature (every prefix of an enumerated path is an enumerated
// path), and the build inserts each (feature, graph) pair exactly once — so
// exporting each counted node once and re-inserting the exact counts
// reconstructs the trie node-for-node.

import (
	"time"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

func init() {
	index.RegisterRestorer(Kind, restore)
}

// ExportFeatures implements index.FeatureExporter: the trie's preorder walk,
// which is the snapshot format's lexicographic canon.
func (x *Index) ExportFeatures(visit func(labels []graph.Label, postings []index.FeaturePosting) error) error {
	return x.trie.ExportFeatures(visit)
}

// restore rebuilds a GGSX index from exported features, plus fresh per-graph
// VF2 matchers; no path enumeration runs.
func restore(ds []*graph.Graph, maxPathLen int, opts index.Options, feats []index.ExportedFeature) (index.Index, error) {
	start := time.Now()
	x := newIndex(ds, Options{MaxPathLen: maxPathLen, Pool: opts.Pool}.withDefaults(), index.RestoreTrie(ds, feats, false))
	x.stats.BuildTime = time.Since(start)
	return x, nil
}
