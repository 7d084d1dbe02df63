package ftv_test

// A build's output does not depend on which extraction worker took which
// graph, nor on how many tries a worker's graphs spread over: the folds read
// a feature's slot only through its trie.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// gridBuild is what a grid must reproduce at any pool size and seal size.
type gridBuild struct {
	exports [][][]index.ExportedFeature // by kind and shard
	stats   [][]index.Stats             // by kind and shard, BuildTime and BuildWorkers zeroed
	dir     [][]graph.Label             // the shared directory's sequences, in order
}

// buildGrid builds every kind's tables over k shards and checks that the
// shards of each build share one directory. The directory is read back as the
// union of the tables' exports: an export walks its table's sequences in the
// directory, so a directory as long as that union holds exactly it, in
// canonical order; every kind indexes the same sequences.
func buildGrid(t *testing.T, kinds []string, ds []*graph.Graph, k int, pool *exec.Pool) gridBuild {
	t.Helper()
	var b gridBuild
	var dirs []*index.PathDirectory
	for _, kind := range kinds {
		row, err := index.BuildTables(context.Background(), kind, ds, k, index.Options{MaxPathLen: 4, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, row[0].Directory())
		var exports [][]index.ExportedFeature
		var stats []index.Stats
		for _, x := range row {
			feats := index.Export(x)
			exports = append(exports, feats)
			for _, f := range feats {
				b.dir = append(b.dir, f.Labels)
			}
			st := x.Stats()
			st.BuildTime, st.BuildWorkers = 0, 0
			stats = append(stats, st)
			if x.Directory() != row[0].Directory() {
				t.Fatalf("%s: a shard keeps a directory of its own", kind)
			}
		}
		b.exports, b.stats = append(b.exports, exports), append(b.stats, stats)
	}
	slices.SortFunc(b.dir, index.CompareLabelSeqs)
	b.dir = slices.CompactFunc(b.dir, func(a, b []graph.Label) bool { return slices.Equal(a, b) })
	for i, dir := range dirs {
		if dir.Len() != len(b.dir) {
			t.Fatalf("%s: the shared directory holds %d sequences, the tables %d", kinds[i], dir.Len(), len(b.dir))
		}
	}
	return b
}

// TestGridIdenticalAcrossPoolsAndTries builds ftv, grapes and ggsx over one
// and three shards from graphs of very different sizes — 200 vertices down to
// one, over 3 labels and over 40, large and small alternating — on pools of 1, 2 and 4 workers, once as
// built and once with the seal size lowered so that each worker's graphs
// spread over several tries: every build must export the same features,
// postings and locations, report the same Stats but for BuildTime and
// BuildWorkers, and share one directory holding the same sequences.
func TestGridIdenticalAcrossPoolsAndTries(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	few := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 6, AvgNodes: 100, NodeSpread: 95, Density: 2.0 / 100, Labels: 3}, 31)
	many := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 6, AvgNodes: 30, NodeSpread: 25, Density: 2.5 / 30, Labels: 40}, 32)
	ds := []*graph.Graph{graph.MustNew("one", []graph.Label{1}, nil), graph.MustNew("edgeless", []graph.Label{0, 2, 2}, nil)}
	for i := range few {
		ds = append(ds, few[i], many[i])
	}
	r.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	kinds := []string{index.KindPath, index.KindGrapes, index.KindGGSX}
	pool1 := exec.New(1)
	defer pool1.Close()
	want := map[int]gridBuild{}
	for _, k := range []int{1, 3} {
		want[k] = buildGrid(t, kinds, ds, k, pool1)
	}
	for _, seal := range []int{0, 300} {
		t.Run(fmt.Sprintf("seal=%d", seal), func(t *testing.T) {
			if seal > 0 {
				ftv.SetTrieSealSlots(t, seal)
				feats, err := ftv.ExtractDatasetFeatures(context.Background(), pool1, ds, 4, false)
				if err != nil {
					t.Fatal(err)
				}
				tries := map[*ftv.LabelTrie]bool{}
				for _, f := range feats {
					tries[f.Trie()] = true
				}
				if len(tries) < 3 {
					t.Fatalf("one worker's graphs are in %d tries; the seal size should have split them", len(tries))
				}
			}
			for _, k := range []int{1, 3} {
				for _, workers := range []int{1, 2, 4} {
					pool := exec.New(workers)
					got := buildGrid(t, kinds, ds, k, pool)
					pool.Close()
					tag := fmt.Sprintf("K=%d, %d workers", k, workers)
					for i, kind := range kinds {
						if !reflect.DeepEqual(got.exports[i], want[k].exports[i]) {
							t.Errorf("%s: the %s export differs from the 1-worker build's", tag, kind)
						}
						if !reflect.DeepEqual(got.stats[i], want[k].stats[i]) {
							t.Errorf("%s: %s Stats %+v, the 1-worker build's %+v", tag, kind, got.stats[i], want[k].stats[i])
						}
					}
					if !reflect.DeepEqual(got.dir, want[k].dir) {
						t.Errorf("%s: the shared directory differs from the 1-worker build's", tag)
					}
				}
			}
		})
	}
}
