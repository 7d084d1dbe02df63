package index_test

// Tests for the mutable-dataset index primitives: Path.WithGraph
// (copy-on-write append) and NewShardedFrom (assembling a Sharded from
// pre-built sub-indexes without clamping, and with an alive mask the
// tombstone-aware dense view). The property each hangs on is the same
// byte-parity the rest of the index layer enforces: derived views answer
// exactly like a from-scratch build over the equivalent dataset. The masked
// view's parity is TestDifferential's, which runs every cell of its matrix
// with tombstoned slots too, and TestShardedTombstoneParity's slice of it.

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/workload"
)

// TestPathWithGraphParity appends graphs one at a time via WithGraph to each
// flat kind and checks, at every prefix, that the derived index answers
// exactly like a build of the kind over the same prefix, holds the same
// features and postings, byte for byte, and still reports its kind — and
// that the receivers are untouched. The last graph brings a label the
// others lack, so appends that add features and appends that share the label
// slab both occur.
func TestPathWithGraphParity(t *testing.T) {
	for _, kind := range []string{index.KindPath, index.KindGGSX} {
		t.Run(kind, func(t *testing.T) { withGraphParity(t, kind) })
	}
}

func withGraphParity(t *testing.T, kind string) {
	r := rand.New(rand.NewSource(7))
	ds := append(difftest.Random(r, 6, 10, 2), graph.MustNew("new-label", []graph.Label{0, 2, 1}, [][2]int{{0, 1}, {1, 2}}))
	base := buildTable(t, kind, ds[:2], index.Options{MaxPathLen: 3})
	queries := []*graph.Graph{
		workload.Extract(r, ds[3], 3),
		workload.Extract(r, ds[4], 2),
		graph.MustNew("edgeless", []graph.Label{0}, nil),
	}
	baseAnswers := make([][]int, len(queries))
	for qi, q := range queries {
		var err error
		if baseAnswers[qi], err = index.Answer(context.Background(), view(t, kind, base), q, nil); err != nil {
			t.Fatal(err)
		}
	}
	cur := base
	chain, exports := []*index.Path{base}, [][]index.ExportedFeature{index.Export(base)}
	grew, kept := 0, 0
	for n := 3; n <= len(ds); n++ {
		next, err := cur.WithGraph(context.Background(), ds[n-1])
		if err != nil {
			t.Fatalf("WithGraph(#%d): %v", n-1, err)
		}
		want := buildTable(t, kind, ds[:n], index.Options{MaxPathLen: 3})
		if st := next.Stats(); st.Kind != kind {
			t.Errorf("n=%d: the appended %s table reports kind %q", n, kind, st.Kind)
		}
		nv, wv := view(t, kind, next), view(t, kind, want)
		for qi, q := range queries {
			if got, expect := nv.Filter(q), wv.Filter(q); !slices.Equal(got, expect) {
				t.Errorf("n=%d q%d: Filter = %v, want %v", n, qi, got, expect)
			}
			got, err := index.Answer(context.Background(), nv, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			expect, err := index.Answer(context.Background(), wv, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, expect) {
				t.Errorf("n=%d q%d: Answer = %v, want %v", n, qi, got, expect)
			}
		}
		st, wst := next.Stats(), want.Stats()
		if st.Graphs != n || st.Features != wst.Features || st.Postings != wst.Postings || st.PostingBytes != wst.PostingBytes {
			t.Errorf("n=%d: stats graphs=%d features=%d postings=%d in %d bytes, want %d/%d/%d/%d",
				n, st.Graphs, st.Features, st.Postings, st.PostingBytes, n, wst.Features, wst.Postings, wst.PostingBytes)
		}
		if got := index.Export(next); !reflect.DeepEqual(got, index.Export(want)) {
			t.Errorf("n=%d: the appended index exports differently from a fresh build", n)
		}
		if st.Features > cur.Stats().Features {
			grew++
		} else {
			kept++
		}
		chain, exports = append(chain, next), append(exports, index.Export(next))
		cur = next
	}
	if grew == 0 || kept == 0 {
		t.Errorf("%d appends added features and %d added none; want both kinds", grew, kept)
	}
	// Every generation exports as it did when it was made, after all the
	// appends derived from it.
	for at, x := range chain {
		if !reflect.DeepEqual(index.Export(x), exports[at]) {
			t.Errorf("the index over %d graphs changed after later appends", at+2)
		}
	}
	// The original two-graph index must still answer as before the appends.
	for qi, q := range queries {
		got, err := index.Answer(context.Background(), view(t, kind, base), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, baseAnswers[qi]) {
			t.Errorf("receiver mutated: q%d = %v, want %v", qi, got, baseAnswers[qi])
		}
	}
}

// view returns the one-shard index over table x, verified by kind's verifier.
func view(t testing.TB, kind string, x *index.Path) *index.Sharded {
	t.Helper()
	return index.NewShardedFrom(x.Dataset(), nil, []*index.Path{x}, verifier(t, kind))
}

// TestPathWithGraphAllocs: beyond extracting the new graph's features,
// WithGraph allocates a constant — the index, its dataset, the graph's
// features in canonical order and their placement, its entries and posting slab, a bitmap when the graph
// brings a sequence new to the index, and a directory's three allocations when
// the shared directory lacks one — however many posting lists the graph
// touches. The index is one shard of two sharing a directory, so a graph of
// the other shard brings sequences the directory holds and the index does not.
func TestPathWithGraphAllocs(t *testing.T) {
	const maxLen, bound = 3, 10
	r := rand.New(rand.NewSource(11))
	ds := difftest.Random(r, 6, 20, 4)
	tables, err := index.BuildTables(context.Background(), index.KindPath, ds, 2, index.Options{MaxPathLen: maxLen})
	if err != nil {
		t.Fatal(err)
	}
	x := tables[0]
	cases := map[string]*graph.Graph{
		"indexed":      graph.MustNew("edge", []graph.Label{0, 1}, [][2]int{{0, 1}}),
		"in directory": ds[1],
		"new":          difftest.Random(r, 1, 40, 5)[0],
	}
	for name, g := range cases {
		touched := ftv.ExtractFeatures(g, maxLen, false).Len()
		extract := testing.AllocsPerRun(20, func() { ftv.ExtractFeatures(g, maxLen, false) })
		var nx *index.Path
		with := testing.AllocsPerRun(20, func() {
			if nx, err = x.WithGraph(context.Background(), g); err != nil {
				t.Fatal(err)
			}
		})
		if with-extract > bound {
			t.Errorf("%s: a graph of %d features: WithGraph makes %.0f allocations beyond the extraction's %.0f, want at most %d", name, touched, with-extract, extract, bound)
		}
		kept, grew := nx.Directory() == x.Directory(), nx.Stats().Features > x.Stats().Features
		if want := name != "new"; kept != want {
			t.Errorf("%s: the directory was kept: %v, want %v", name, kept, want)
		}
		if want := name != "indexed"; grew != want {
			t.Errorf("%s: the index grew: %v, want %v", name, grew, want)
		}
	}
}

// TestShardedMaskMismatchPanics pins the constructor's consistency check: an
// alive mask that does not cover the slot space is a caller bug, not a state
// to limp along in.
func TestShardedMaskMismatchPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := difftest.Random(r, 3, 6, 2)
	x := buildTable(t, index.KindPath, ds, index.Options{MaxPathLen: 2})
	defer func() {
		if recover() == nil {
			t.Error("NewShardedFrom with a mismatched mask did not panic")
		}
	}()
	index.NewShardedFrom(ds, []bool{true, false}, []*index.Path{x}, verifier(t, index.KindPath))
}

// TestShardedWithoutTablePanics: the merge extracts a query's features once
// and scans every shard's table, so a shard without a table, or one at
// another path length, is a caller bug too.
func TestShardedWithoutTablePanics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := difftest.Random(r, 4, 6, 2)
	build := func(sub []*graph.Graph, maxLen int) *index.Path {
		return buildTable(t, index.KindPath, sub, index.Options{MaxPathLen: maxLen})
	}
	even, odd := index.ShardDataset(ds, 0, 2), index.ShardDataset(ds, 1, 2)
	for name, subs := range map[string][]*index.Path{
		"no table":          {build(even, 2), nil},
		"other path length": {build(even, 2), build(odd, 3)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("NewShardedFrom did not panic")
				}
			}()
			index.NewShardedFrom(ds, nil, subs, verifier(t, index.KindPath))
		})
	}
}
