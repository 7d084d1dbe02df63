package psi_test

// Benchmarks for the unified filtering-index layer: per-kind build cost
// (pooled extraction), and the index race against a fixed single index on
// dataset containment queries. bench/ reports the same per kind, with
// filter precision and race win shares (index.<kind>.*, core.win_share.*).

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/grapes"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/workload"
)

func indexBenchFixture(b *testing.B) ([]*psi.Graph, []*psi.Graph) {
	b.Helper()
	ds := psi.GeneratePPI(psi.Tiny, 1)
	var queries []*psi.Graph
	for i, g := range ds {
		queries = append(queries,
			psi.ExtractQuery(g, 4, int64(100+i)),
			psi.ExtractQuery(g, 8, int64(200+i)))
	}
	return ds, queries
}

func benchIndexBuild(b *testing.B, kind string) {
	ds, _ := indexBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := psi.BuildIndex(context.Background(), kind, ds, 1)
		if err != nil {
			b.Fatal(err)
		}
		x.Close()
	}
}

func BenchmarkIndexBuildFTV(b *testing.B)    { benchIndexBuild(b, "ftv") }
func BenchmarkIndexBuildGrapes(b *testing.B) { benchIndexBuild(b, "grapes") }
func BenchmarkIndexBuildGGSX(b *testing.B)   { benchIndexBuild(b, "ggsx") }

// BenchmarkIndexRaceAnswer runs the decision workload through a dataset
// engine racing all three filtering indexes per query.
func BenchmarkIndexRaceAnswer(b *testing.B) {
	ds, queries := indexBenchFixture(b)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ftv", "grapes", "ggsx"},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := eng.Query(context.Background(), q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexFixedAnswer is the single-index baseline the race is
// compared against (Grapes alone).
func BenchmarkIndexFixedAnswer(b *testing.B) {
	ds, queries := indexBenchFixture(b)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"grapes"},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := eng.Query(context.Background(), q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// The two dataset shapes of the repo benchmark's FTV workloads
// (bench/spec.go): ftv_stragglers' 40 graphs of ~300 nodes over 4 labels,
// and ftv_selective's 300 graphs of ~50 nodes over 8 labels — small,
// label-poor graphs in which every feature recurs thousands of times — plus
// the opposite end of the range, which the harness does not cover: one
// sparse 8000-vertex graph over 300 labels (the paper's PPI/PDBS-style
// shape), where nearly every path is its own feature and any per-feature
// scratch proportional to the vertex count dominates the build; and 40
// sparse 300-vertex graphs over 100 labels, which share few of their
// sequences, so that an extraction worker's trie, kept from graph to graph,
// grows without paying off and is sealed when it passes its size. The
// micro-benchmarks below iterate on the index-build path without the 40 s
// harness; run with -benchmem.
var buildBenchShapes = []struct {
	name string
	cfg  gen.SyntheticConfig
}{
	{"40x300n4l", gen.SyntheticConfig{NumGraphs: 40, AvgNodes: 300, NodeSpread: 100, Density: 8.0 / 300, Labels: 4}},
	{"300x50n8l", gen.SyntheticConfig{NumGraphs: 300, AvgNodes: 50, NodeSpread: 16, Density: 5.0 / 50, Labels: 8}},
	{"1x8000n300l", gen.SyntheticConfig{NumGraphs: 1, AvgNodes: 8000, Density: 3.0 / 8000, Labels: 300}}, // 12k edges
	{"40x300n100l", gen.SyntheticConfig{NumGraphs: 40, AvgNodes: 300, NodeSpread: 100, Density: 4.0 / 300, Labels: 100}},
}

// BenchmarkExtractFeatures is the shared path-feature pass alone, over the
// whole dataset on the default pool, with and without Grapes' locations. It
// also reports the work in the unit the extractor does it in: the dataset's
// simple paths of up to four edges, each walked from both ends (paths/op, the
// nodes of the path DFS, counted once by the plain enumeration), and the wall
// time one costs (ns/path).
func BenchmarkExtractFeatures(b *testing.B) {
	for _, shape := range buildBenchShapes {
		ds := gen.Synthetic(shape.cfg, 20170321)
		paths := 0
		for _, locs := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/locations=%v", shape.name, locs), func(b *testing.B) {
				if paths == 0 {
					for _, g := range ds {
						g.EnumeratePaths(ftv.DefaultMaxPathLen, func([]int32) { paths++ })
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ftv.ExtractDatasetFeatures(context.Background(), nil, ds, ftv.DefaultMaxPathLen, locs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(paths), "paths/op")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(paths), "ns/path")
			})
		}
	}
}

// BenchmarkBuildPortfolio is the whole build — one extraction, every kind
// and shard folded, the BuildGrid every dataset engine's store makes — as
// the stragglers workload (three kinds, K=1) and the selective
// workload (ftv alone, K=2) configure it, and Grapes alone, the one kind that
// keeps locations. Every build reports what a posting of its first index
// costs, skip tables included (bytes/posting); builds with Grapes report what
// its location sets hold (loc-MB) and the share stored as bitset rows
// (loc-rows): all of them on the first two shapes, none on the sparse one.
func BenchmarkBuildPortfolio(b *testing.B) {
	for _, shape := range buildBenchShapes {
		ds := gen.Synthetic(shape.cfg, 20170321)
		for _, pf := range []struct {
			kinds  []string
			shards int
		}{
			{[]string{"ftv", "grapes", "ggsx"}, 1},
			{[]string{"ftv"}, 2},
			{[]string{"grapes"}, 1},
		} {
			b.Run(fmt.Sprintf("%s/%s/K=%d", shape.name, strings.Join(pf.kinds, "+"), pf.shards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					grid, err := index.BuildGrid(context.Background(), pf.kinds, ds, pf.shards, index.Options{})
					if err != nil {
						b.Fatal(err)
					}
					for k, row := range grid {
						x := index.NewShardedFrom(ds, nil, pf.kinds[k], row) // a row's totals
						st := x.Stats()
						if k == 0 {
							b.ReportMetric(float64(st.PostingBytes)/float64(st.Postings), "bytes/posting")
						}
						if st.LocationBytes > 0 {
							b.ReportMetric(float64(st.LocationBytes)/(1<<20), "loc-MB")
							b.ReportMetric(float64(st.LocationRows)/float64(st.LocationRows+st.LocationLists), "loc-rows")
						}
						x.Close()
					}
				}
			})
		}
	}
}

// BenchmarkGrapesVerify is Grapes' verification stage alone, one operation per
// (query, candidate graph) pair the filter lets through, a query's candidates
// in a row as the pipeline verifies them, on the two shapes
// whose location sets take opposite forms: ftv_stragglers' label-poor graphs,
// where every set is a bitset row and the union covers most of the graph, and
// the sparse many-label graph, where every set is a short list and the union
// is a few components of a few vertices.
func BenchmarkGrapesVerify(b *testing.B) {
	for _, shape := range []int{0, 2} {
		ds := gen.Synthetic(buildBenchShapes[shape].cfg, 20170321)
		x := grapes.Build(ds, grapes.Options{})
		type pair struct {
			q  *psi.Graph
			id int
		}
		var pairs []pair
		for _, q := range workload.Generate(ds, []int{8, 12, 16}, 8, 1) {
			for _, id := range x.Filter(q.Graph) {
				pairs = append(pairs, pair{q.Graph, id})
			}
		}
		b.Run(buildBenchShapes[shape].name, func(b *testing.B) {
			b.ReportAllocs()
			took := make([]time.Duration, b.N)
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				start := time.Now()
				if _, err := x.Verify(context.Background(), p.q, p.id); err != nil {
					b.Fatal(err)
				}
				took[i] = time.Since(start)
			}
			// The mean is a few straggler pairs' VF2 search; the median is
			// what a candidate costs.
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds()), "p50-ns")
		})
		x.Close()
	}
}

// BenchmarkShardedFilterStream is the sharded filter alone — what bench/
// reports as index.sharded.filter_us — over the dataset shapes of the repo
// benchmark's ftv_selective (built there at K = 2) and serve_mixed (K = 4)
// workloads, copied from bench/spec.go: the ftv kind at K = 1, 2 and 4, each
// drained in full and stopped at the first candidate, as a pipeline is once
// its caller has what it needs. One op is one query of a fixed pool.
func BenchmarkShardedFilterStream(b *testing.B) {
	shapes := []struct {
		name string
		cfg  gen.SyntheticConfig
	}{
		{"ftv_selective", gen.SyntheticConfig{NumGraphs: 300, AvgNodes: 50, NodeSpread: 16, Density: 5.0 / 50, Labels: 8}},
		{"serve_mixed", gen.SyntheticConfig{NumGraphs: 200, AvgNodes: 50, Density: 5.0 / 50, Labels: 8}},
	}
	for _, shape := range shapes {
		ds := gen.Synthetic(shape.cfg, 20170321)
		queries := workload.Generate(ds, []int{4, 8, 12, 16}, 16, 1)
		for _, k := range []int{1, 2, 4} {
			x, err := index.BuildSharded(context.Background(), index.KindPath, ds, k, index.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, first := range []bool{false, true} {
				name := fmt.Sprintf("%s/K=%d/full", shape.name, k)
				if first {
					name = fmt.Sprintf("%s/K=%d/first", shape.name, k)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						q := queries[i%len(queries)].Graph
						if err := x.FilterStream(context.Background(), q, func(int) bool { return !first }); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			x.Close()
		}
	}
}
