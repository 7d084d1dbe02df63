package index_test

// The one sequence directory of a build: every shard's table folded from one
// extraction looks its features up in it, and each holds exactly what a
// table of its own over its graphs holds, before and after an insert.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// buildTable builds the one table of kind over ds.
func buildTable(t testing.TB, kind string, ds []*graph.Graph, opts index.Options) *index.Path {
	t.Helper()
	tables, err := index.BuildTables(context.Background(), kind, ds, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tables[0]
}

// verifier returns kind's verifier under default options.
func verifier(t testing.TB, kind string) index.Verifier {
	t.Helper()
	v, err := index.NewVerifier(kind, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// buildIndex builds the one-shard index of kind over ds.
func buildIndex(t testing.TB, kind string, ds []*graph.Graph, opts index.Options) *index.Sharded {
	t.Helper()
	return buildSharded(t, kind, ds, 1, opts)
}

// buildSharded builds kind's index over ds at K = k.
func buildSharded(t testing.TB, kind string, ds []*graph.Graph, k int, opts index.Options) *index.Sharded {
	t.Helper()
	x, err := index.Build(context.Background(), kind, ds, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// FuzzPathDirectory decodes a small dataset from the input and builds, under
// each of ftv, ggsx and grapes, its tables over K = 1..4 shards, which must
// share one directory, and builds every shard again as a table of its own:
// each pair must agree on Export, on Stats and on the located lookup of every
// sequence of the shared directory and of sequences no shard holds —
// postings, their bytes, and each posting's location set. The ftv and ggsx
// pairs must agree again after each takes the input's last graph through
// WithGraph, which may set bits, write a superset directory or neither and
// must leave the other shards on the shared one; a grapes table, whose
// locations an insert would not extract, refuses it. The tables, merged by
// NewShardedFrom under an alive mask read from the high bits of shards and
// labels, must filter the input's last graph to what an index over the live
// graphs alone does, and a stream stopped at its j-th candidate must have
// emitted exactly the first j.
func FuzzPathDirectory(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 2, 0, 1, 1, 2, 3, 1, 1, 0, 2, 0, 1, 1, 2, 2, 5, 0, 1, 2, 3, 4, 5, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, uint8(1), uint8(3))
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 1, 1, 1, 0, 1, 2, 2, 2, 1, 0, 1, 4, 0, 1, 0, 1, 3, 0, 1, 1, 2, 2, 3}, uint8(3), uint8(2))
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, uint8(0), uint8(5))
	kinds := []string{index.KindPath, index.KindGGSX, index.KindGrapes}
	f.Fuzz(func(t *testing.T, data []byte, shards, labels uint8) {
		ds := decodeDataset(data, 1+int(labels%6))
		if len(ds) < 2 {
			return
		}
		extra, ds := ds[len(ds)-1], ds[:len(ds)-1]
		k := 1 + int(shards%4)
		ctx, opts := context.Background(), index.Options{MaxPathLen: 3}
		alive, dead := make([]bool, len(ds)), int(shards>>2)|int(labels>>3)<<6
		for g := range ds {
			alive[g] = dead>>g&1 == 0
		}
		for _, kind := range kinds {
			tables, err := index.BuildTables(ctx, kind, ds, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := tables[0].Directory()
			probes := directoryProbes(dir, ftv.ExtractFeatures(extra, opts.MaxPathLen, false))
			checkShardedRow(t, fmt.Sprintf("K=%d %s alive %v", k, kind, alive), ds, alive, kind, tables, extra)
			for s, cell := range tables {
				if cell.Directory() != dir {
					t.Fatalf("K=%d: %s shard %d has a directory of its own", k, kind, s)
				}
				own := buildTable(t, kind, index.ShardDataset(ds, s, k), opts)
				tag := fmt.Sprintf("K=%d %s shard %d", k, kind, s)
				checkSameTable(t, tag, cell, own, probes)
				grown, err := cell.WithGraph(ctx, extra)
				if kind == index.KindGrapes {
					if err == nil {
						t.Fatalf("%s: a table with locations took an insert", tag)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				ownGrown, err := own.WithGraph(ctx, extra)
				if err != nil {
					t.Fatal(err)
				}
				checkSameTable(t, tag+" after an insert", grown, ownGrown, probes)
			}
			for s, cell := range tables {
				if cell.Directory() != dir {
					t.Fatalf("K=%d: %s shard %d left the shared directory after the inserts", k, kind, s)
				}
			}
		}
	})
}

// checkShardedRow fails unless row, the tables of one kind over ds, merged
// under the alive mask, filters q to the candidates of an index of that kind
// over the live graphs alone: Filter, FilterStream, and FilterStream stopped
// at each candidate, which must have emitted exactly the prefix up to it.
func checkShardedRow(t *testing.T, tag string, ds []*graph.Graph, alive []bool, kind string, row []*index.Path, q *graph.Graph) {
	t.Helper()
	var live []*graph.Graph
	for g, ok := range alive {
		if ok {
			live = append(live, ds[g])
		}
	}
	want := buildIndex(t, kind, live, index.Options{MaxPathLen: 3}).Filter(q)
	sh := index.NewShardedFrom(ds, alive, row, verifier(t, kind))
	if got := sh.Filter(q); !slices.Equal(got, want) {
		t.Fatalf("%s: Filter = %v, want %v", tag, got, want)
	}
	// Stopping at candidate 0, which does not exist, is the full stream.
	for j := 0; j <= len(want); j++ {
		var got []int
		err := sh.FilterStream(context.Background(), q, func(id int) bool {
			got = append(got, id)
			return len(got) != j
		})
		prefix := want[:j]
		if j == 0 {
			prefix = want
		}
		if err != nil || !slices.Equal(got, prefix) {
			t.Fatalf("%s: FilterStream stopped at candidate %d emitted %v, %v; want %v", tag, j, got, err, prefix)
		}
	}
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

// checkSameTable fails unless the two tables export, report and look up
// alike, location sets included.
func checkSameTable(t *testing.T, tag string, a, b *index.Path, probes [][]graph.Label) {
	t.Helper()
	if fa, fb := index.Export(a), index.Export(b); !reflect.DeepEqual(fa, fb) {
		t.Fatalf("%s: exports differ:\n%v\n%v", tag, fa, fb)
	}
	sa, sb := a.Stats(), b.Stats()
	sa.BuildTime, sb.BuildTime = 0, 0
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: stats differ: %+v, %+v", tag, sa, sb)
	}
	for _, p := range probes {
		la, ra := a.Located(p)
		lb, rb := b.Located(p)
		if !reflect.DeepEqual(located(a, la, ra), located(b, lb, rb)) || !slices.Equal(la.Packed(), lb.Packed()) {
			t.Fatalf("%s: %v looks up %v, want %v", tag, p, located(a, la, ra), located(b, lb, rb))
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
