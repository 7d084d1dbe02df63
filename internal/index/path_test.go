package index

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// TestPathEntryLayout pins what a feature costs the flat index beyond its
// bit in the presence bitmap and its postings: one entry of 12 bytes with no
// pointer in it (the labels live in the shared directory).
func TestPathEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(pathEntry{}); size > 12 {
		t.Errorf("pathEntry is %d bytes, want at most 12", size)
	}
	entry := reflect.TypeFor[pathEntry]()
	for i := range entry.NumField() {
		if k := entry.Field(i).Type.Kind(); k != reflect.Uint32 && k != reflect.Int32 {
			t.Errorf("pathEntry.%s is a %s, want a 32-bit integer", entry.Field(i).Name, k)
		}
	}
}

// TestSlabOffsetPanics: an offset that would wrap panics, naming the index
// and what to do about it.
func TestSlabOffsetPanics(t *testing.T) {
	if got := slabOffset(1<<32 - 1); got != 1<<32-1 {
		t.Errorf("slabOffset(2^32-1) = %d", got)
	}
	defer func() {
		want := fmt.Sprintf("index: the flat path index (ftv) holds %d labels or posting bytes, past the 2^32 an offset can address; shard the dataset", 1<<32)
		if msg := fmt.Sprint(recover()); msg != want {
			t.Errorf("slabOffset(2^32) recovered %q", msg)
		}
	}()
	slabOffset(1 << 32)
}

// FuzzPathDirectory decodes a small dataset from the input, builds it as a
// grid of K = 1..4 flat shards, which share one directory, and builds every
// shard again as an index of its own: each pair must agree on Export, on
// Stats and on the lookup of every sequence of the shared directory and of
// sequences no shard holds — and so must the pair after each takes the
// input's last graph through WithGraph, which may set bits, write a superset
// directory or neither.
func FuzzPathDirectory(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 2, 0, 1, 1, 2, 3, 1, 1, 0, 2, 0, 1, 1, 2, 2, 5, 0, 1, 2, 3, 4, 5, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, uint8(1), uint8(3))
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 1, 1, 1, 0, 1, 2, 2, 2, 1, 0, 1, 4, 0, 1, 0, 1, 3, 0, 1, 1, 2, 2, 3}, uint8(3), uint8(2))
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, shards, labels uint8) {
		ds := decodeDataset(data, 1+int(labels%6))
		if len(ds) < 2 {
			return
		}
		extra, ds := ds[len(ds)-1], ds[:len(ds)-1]
		k := 1 + int(shards%4)
		opts := Options{MaxPathLen: 3}
		grid, err := BuildGrid(context.Background(), []string{KindPath}, ds, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := grid[0][0].(*Path).dir
		probes := directoryProbes(dir, ftv.ExtractFeatures(extra, opts.MaxPathLen, false))
		for s, sub := range grid[0] {
			shared := sub.(*Path)
			if shared.dir != dir {
				t.Fatalf("K=%d: shard %d has a directory of its own", k, s)
			}
			own, err := BuildPath(context.Background(), ShardDataset(ds, s, k), opts)
			if err != nil {
				t.Fatal(err)
			}
			checkSameIndex(t, fmt.Sprintf("K=%d shard %d", k, s), shared, own, probes)
			grown, err := shared.WithGraph(context.Background(), extra)
			if err != nil {
				t.Fatal(err)
			}
			ownGrown, err := own.WithGraph(context.Background(), extra)
			if err != nil {
				t.Fatal(err)
			}
			checkSameIndex(t, fmt.Sprintf("K=%d shard %d after an insert", k, s), grown.(*Path), ownGrown.(*Path), probes)
		}
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
func directoryProbes(dir *PathDirectory, f *ftv.Features) [][]graph.Label {
	var probes [][]graph.Label
	add := func(s []graph.Label) {
		raised := slices.Clone(s)
		raised[len(raised)-1]++
		probes = append(probes, s, raised, append(slices.Clone(s), 99))
	}
	for p := range dir.Len() {
		add(dir.seq(p))
	}
	for i := range f.Len() {
		add(f.Labels(i))
	}
	return append(probes, []graph.Label{99})
}

// checkSameIndex fails unless the two flat indexes export, report and look up
// alike.
func checkSameIndex(t *testing.T, tag string, a, b *Path, probes [][]graph.Label) {
	t.Helper()
	fa, _, err := Export(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, _, err := Export(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fa, fb) {
		t.Fatalf("%s: exports differ:\n%v\n%v", tag, fa, fb)
	}
	sa, sb := a.Stats(), b.Stats()
	sa.BuildTime, sb.BuildTime = 0, 0
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: stats differ: %+v, %+v", tag, sa, sb)
	}
	for _, p := range probes {
		la, lb := a.lookup(p), b.lookup(p)
		if !slices.Equal(unpack(la), unpack(lb)) || !slices.Equal(la.data, lb.data) {
			t.Fatalf("%s: %v looks up %v, want %v", tag, p, unpack(la), unpack(lb))
		}
	}
}
