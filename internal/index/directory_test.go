package index_test

// The one sequence directory of a grid: every kind and shard folded from one
// extraction looks its features up in it, and each cell holds exactly what an
// index of its own over its graphs holds, before and after an insert.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/grapes"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// tableOf returns the table an index keeps its features in.
func tableOf(t *testing.T, x index.Index) *index.Path {
	t.Helper()
	tx, ok := x.(interface{ Table() *index.Path })
	if !ok {
		t.Fatalf("%s keeps no table", x.Name())
	}
	return tx.Table()
}

// FuzzPathDirectory decodes a small dataset from the input, builds it as a
// grid of ftv, ggsx and grapes over K = 1..4 shards, whose every cell must
// share one directory, and builds every cell again as an index of its own:
// each pair must agree on Export, on Stats and on the located lookup of every
// sequence of the shared directory and of sequences no shard holds — postings,
// their bytes, and each posting's location set. The ftv and ggsx pairs must
// agree again after each takes the input's last graph through WithGraph, which
// may set bits, write a superset directory or neither, and those inserts must
// leave the Grapes cells' directory and location sets as they were.
func FuzzPathDirectory(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 2, 0, 1, 1, 2, 3, 1, 1, 0, 2, 0, 1, 1, 2, 2, 5, 0, 1, 2, 3, 4, 5, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, uint8(1), uint8(3))
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 1, 1, 1, 0, 1, 2, 2, 2, 1, 0, 1, 4, 0, 1, 0, 1, 3, 0, 1, 1, 2, 2, 3}, uint8(3), uint8(2))
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, uint8(0), uint8(5))
	kinds := []string{index.KindPath, index.KindGGSX, grapes.Kind}
	f.Fuzz(func(t *testing.T, data []byte, shards, labels uint8) {
		ds := decodeDataset(data, 1+int(labels%6))
		if len(ds) < 2 {
			return
		}
		extra, ds := ds[len(ds)-1], ds[:len(ds)-1]
		k := 1 + int(shards%4)
		ctx, opts := context.Background(), index.Options{MaxPathLen: 3}
		grid, err := index.BuildGrid(ctx, kinds, ds, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := tableOf(t, grid[0][0]).Directory()
		probes := directoryProbes(dir, ftv.ExtractFeatures(extra, opts.MaxPathLen, false))
		checkGrapesRow := func(when string) {
			for s, cell := range grid[2] {
				if tableOf(t, cell).Directory() != dir {
					t.Fatalf("K=%d %s: grapes shard %d has a directory of its own", k, when, s)
				}
				own, err := grapes.BuildContext(ctx, index.ShardDataset(ds, s, k), grapes.Options{MaxPathLen: opts.MaxPathLen})
				if err != nil {
					t.Fatal(err)
				}
				checkSameIndex(t, fmt.Sprintf("K=%d %s: grapes shard %d", k, when, s), cell, own, probes)
			}
		}
		checkGrapesRow("built")
		for i, kind := range kinds[:2] {
			for s, cell := range grid[i] {
				if tableOf(t, cell).Directory() != dir {
					t.Fatalf("K=%d: %s shard %d has a directory of its own", k, kind, s)
				}
				own, err := index.Build(ctx, kind, index.ShardDataset(ds, s, k), opts)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("K=%d %s shard %d", k, kind, s)
				checkSameIndex(t, tag, cell, own, probes)
				grown, err := cell.(index.Inserter).WithGraph(ctx, extra)
				if err != nil {
					t.Fatal(err)
				}
				ownGrown, err := own.(index.Inserter).WithGraph(ctx, extra)
				if err != nil {
					t.Fatal(err)
				}
				checkSameIndex(t, tag+" after an insert", grown, ownGrown, probes)
			}
		}
		checkGrapesRow("after the inserts")
	})
}

// decodeDataset reads up to eight small graphs from data: per graph a vertex
// count, a label per vertex and an edge count, then an endpoint pair per
// edge; repeated edges and self-loops are dropped.
func decodeDataset(data []byte, labels int) []*graph.Graph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var ds []*graph.Graph
	for len(data) > 0 && len(ds) < 8 {
		n := 1 + next()%6
		b := graph.NewBuilder("fuzz")
		for range n {
			b.AddVertex(graph.Label(next() % labels))
		}
		for m := next() % (n * n); m > 0; m-- {
			u, v := next()%n, next()%n
			if u != v && !b.HasEdgePending(u, v) {
				if err := b.AddEdge(u, v); err != nil {
					panic(err) // unreachable: both endpoints exist and differ
				}
			}
		}
		ds = append(ds, b.MustBuild())
	}
	return ds
}

// directoryProbes is every sequence of dir and of f, each also with its last
// label raised by one and with a label no graph carries appended, which
// reaches positions between, before and past the directory's sequences.
func directoryProbes(dir *index.PathDirectory, f *ftv.Features) [][]graph.Label {
	var probes [][]graph.Label
	add := func(s []graph.Label) {
		raised := slices.Clone(s)
		raised[len(raised)-1]++
		probes = append(probes, s, raised, append(slices.Clone(s), 99))
	}
	for p := range dir.Len() {
		add(dir.Seq(p))
	}
	for i := range f.Len() {
		add(f.AppendLabels(nil, i))
	}
	return append(probes, []graph.Label{99})
}

// checkSameIndex fails unless the two indexes export, report and look up
// alike, location sets included.
func checkSameIndex(t *testing.T, tag string, a, b index.Index, probes [][]graph.Label) {
	t.Helper()
	if fa, fb := exportOf(t, a), exportOf(t, b); !reflect.DeepEqual(fa, fb) {
		t.Fatalf("%s: exports differ:\n%v\n%v", tag, fa, fb)
	}
	sa, sb := a.Stats(), b.Stats()
	sa.BuildTime, sb.BuildTime = 0, 0
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: stats differ: %+v, %+v", tag, sa, sb)
	}
	ta, tb := tableOf(t, a), tableOf(t, b)
	for _, p := range probes {
		la, ra := ta.Located(p)
		lb, rb := tb.Located(p)
		if !reflect.DeepEqual(located(ta, la, ra), located(tb, lb, rb)) || !slices.Equal(la.Packed(), lb.Packed()) {
			t.Fatalf("%s: %v looks up %v, want %v", tag, p, located(ta, la, ra), located(tb, lb, rb))
		}
	}
}

// located reads a located lookup out: each posting's graph and count, and
// the vertex IDs of its location set when the table keeps them.
func located(x *index.Path, l index.PostingList, refs []ftv.LocRef) []index.FeaturePosting {
	var out []index.FeaturePosting
	for c := l.Cursor(); c.Next(); {
		p := index.FeaturePosting{GraphID: int(c.Graph()), Count: c.Count()}
		if refs != nil {
			words := ftv.Words(x.Dataset()[p.GraphID].N())
			p.Locations = x.LocSets().AppendIDs(nil, refs[len(out)], words)
		}
		out = append(out, p)
	}
	return out
}
