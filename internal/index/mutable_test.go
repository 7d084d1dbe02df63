package index_test

// Tests for the mutable-dataset index primitives: Path.WithGraph
// (copy-on-write append) and NewShardedFrom (assembling a Sharded from
// pre-built sub-indexes without clamping, and with an alive mask the
// tombstone-aware dense view). The property each hangs on is the same
// byte-parity the rest of the index layer enforces: derived views answer
// exactly like a from-scratch build over the equivalent dataset.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// TestPathWithGraphParity appends graphs one at a time via WithGraph to each
// flat kind and checks, at every prefix, that the derived index answers
// exactly like a build of the kind over the same prefix, holds the same
// features and postings, byte for byte, and still names itself as its kind —
// and that the receivers are untouched. The last graph brings a label the
// others lack, so appends that add features and appends that share the label
// slab both occur.
func TestPathWithGraphParity(t *testing.T) {
	for _, kind := range []string{index.KindPath, index.KindGGSX} {
		t.Run(kind, func(t *testing.T) { withGraphParity(t, kind) })
	}
}

func withGraphParity(t *testing.T, kind string) {
	r := rand.New(rand.NewSource(7))
	ds := append(randomDataset(r, 6, 10, 2), graph.MustNew("new-label", []graph.Label{0, 2, 1}, [][2]int{{0, 1}, {1, 2}}))
	base, err := index.Build(context.Background(), kind, ds[:2], index.Options{MaxPathLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := []*graph.Graph{
		extractQuery(r, ds[3], 3),
		extractQuery(r, ds[4], 2),
		graph.MustNew("edgeless", []graph.Label{0}, nil),
	}
	baseAnswers := make([][]int, len(queries))
	for qi, q := range queries {
		if baseAnswers[qi], err = index.Answer(context.Background(), base, q, nil); err != nil {
			t.Fatal(err)
		}
	}
	var cur index.Index = base
	chain, exports := []index.Index{base}, [][]index.ExportedFeature{exportOf(t, base)}
	grew, kept := 0, 0
	for n := 3; n <= len(ds); n++ {
		next, err := cur.(index.Inserter).WithGraph(context.Background(), ds[n-1])
		if err != nil {
			t.Fatalf("WithGraph(#%d): %v", n-1, err)
		}
		want, err := index.Build(context.Background(), kind, ds[:n], index.Options{MaxPathLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		if st := next.Stats(); next.Name() != base.Name() || st.Name != base.Name() || st.Kind != kind {
			t.Errorf("n=%d: the appended %s index is %q, reporting %q of kind %q", n, kind, next.Name(), st.Name, st.Kind)
		}
		for qi, q := range queries {
			if got, expect := next.Filter(q), want.Filter(q); !sameInts(got, expect) {
				t.Errorf("n=%d q%d: Filter = %v, want %v", n, qi, got, expect)
			}
			got, err := index.Answer(context.Background(), next, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			expect, err := index.Answer(context.Background(), want, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(got, expect) {
				t.Errorf("n=%d q%d: Answer = %v, want %v", n, qi, got, expect)
			}
		}
		st, wst := next.Stats(), want.Stats()
		if st.Graphs != n || st.Features != wst.Features || st.Postings != wst.Postings || st.PostingBytes != wst.PostingBytes {
			t.Errorf("n=%d: stats graphs=%d features=%d postings=%d in %d bytes, want %d/%d/%d/%d",
				n, st.Graphs, st.Features, st.Postings, st.PostingBytes, n, wst.Features, wst.Postings, wst.PostingBytes)
		}
		if got := exportOf(t, next); !reflect.DeepEqual(got, exportOf(t, want)) {
			t.Errorf("n=%d: the appended index exports differently from a fresh build", n)
		}
		if st.Features > cur.Stats().Features {
			grew++
		} else {
			kept++
		}
		chain, exports = append(chain, next), append(exports, exportOf(t, next))
		cur = next
	}
	if grew == 0 || kept == 0 {
		t.Errorf("%d appends added features and %d added none; want both kinds", grew, kept)
	}
	// Every generation exports as it did when it was made, after all the
	// appends derived from it.
	for at, x := range chain {
		if !reflect.DeepEqual(exportOf(t, x), exports[at]) {
			t.Errorf("the index over %d graphs changed after later appends", at+2)
		}
	}
	// The original two-graph index must still answer as before the appends.
	for qi, q := range queries {
		got, err := index.Answer(context.Background(), base, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(got, baseAnswers[qi]) {
			t.Errorf("receiver mutated: q%d = %v, want %v", qi, got, baseAnswers[qi])
		}
	}
}

// exportOf is Export for an index that supports it.
func exportOf(t *testing.T, x index.Index) []index.ExportedFeature {
	t.Helper()
	feats, _, err := index.Export(x)
	if err != nil {
		t.Fatal(err)
	}
	return feats
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
	ds := randomDataset(r, 6, 20, 4)
	grid, err := index.BuildGrid(context.Background(), []string{index.KindPath}, ds, 2, index.Options{MaxPathLen: maxLen})
	if err != nil {
		t.Fatal(err)
	}
	x := grid[0][0].(*index.Path)
	cases := map[string]*graph.Graph{
		"indexed":      graph.MustNew("edge", []graph.Label{0, 1}, [][2]int{{0, 1}}),
		"in directory": ds[1],
		"new":          randomDataset(r, 1, 40, 5)[0],
	}
	for name, g := range cases {
		touched := ftv.ExtractFeatures(g, maxLen, false).Len()
		extract := testing.AllocsPerRun(20, func() { ftv.ExtractFeatures(g, maxLen, false) })
		var nx index.Index
		with := testing.AllocsPerRun(20, func() {
			if nx, err = x.WithGraph(context.Background(), g); err != nil {
				t.Fatal(err)
			}
		})
		if with-extract > bound {
			t.Errorf("%s: a graph of %d features: WithGraph makes %.0f allocations beyond the extraction's %.0f, want at most %d", name, touched, with-extract, extract, bound)
		}
		kept, grew := nx.(*index.Path).Directory() == x.Directory(), nx.Stats().Features > x.Stats().Features
		if want := name != "new"; kept != want {
			t.Errorf("%s: the directory was kept: %v, want %v", name, kept, want)
		}
		if want := name != "indexed"; grew != want {
			t.Errorf("%s: the index grew: %v, want %v", name, grew, want)
		}
	}
}

// TestShardedTombstoneParity tombstones a random subset of slots (replacing
// them with a zero-vertex placeholder, as the live store does) and checks
// that the sharded view under the alive mask answers byte-identically to a
// fresh monolithic build over just the live graphs — for several shard
// counts, including K greater than the dataset (empty shards). At K = 1 the
// masked view still names itself and reports statistics as its one shard,
// save that Graphs counts only the live graphs.
func TestShardedTombstoneParity(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	slots := randomDataset(r, 7, 10, 2)
	dead := map[int]bool{1: true, 4: true, 5: true}
	placeholder := graph.NewBuilder("dead").MustBuild()
	alive := make([]bool, len(slots))
	var dense []*graph.Graph
	slotDS := make([]*graph.Graph, len(slots))
	for s, g := range slots {
		if dead[s] {
			slotDS[s] = placeholder
			continue
		}
		alive[s] = true
		slotDS[s] = g
		dense = append(dense, g)
	}
	queries := []*graph.Graph{
		extractQuery(r, slots[0], 3),
		extractQuery(r, slots[4], 3), // extracted from a dead graph: may hit others
		graph.MustNew("edgeless", []graph.Label{0}, nil),
	}
	for _, kind := range index.Kinds() {
		want, err := index.Build(context.Background(), kind, dense, index.Options{MaxPathLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 11} {
			subs := make([]index.Index, k)
			for s := 0; s < k; s++ {
				if subs[s], err = index.Build(context.Background(), kind, index.ShardDataset(slotDS, s, k), index.Options{MaxPathLen: 3}); err != nil {
					t.Fatalf("%s K=%d shard %d: %v", kind, k, s, err)
				}
			}
			wantShards := k
			if k == 1 {
				wantShards = 0 // one shard reports as the index it is
			}
			if st := index.NewShardedFrom(slotDS, nil, kind, subs).Stats(); st.ShardCount != wantShards || st.Graphs != len(slotDS) {
				t.Errorf("%s K=%d: ShardedFrom stats = %d shards/%d graphs", kind, k, st.ShardCount, st.Graphs)
			}
			m := index.NewShardedFrom(slotDS, alive, kind, subs)
			if got := len(m.Dataset()); got != len(dense) {
				t.Fatalf("%s K=%d: masked dataset = %d graphs, want %d", kind, k, got, len(dense))
			}
			st := m.Stats()
			if st.Graphs != len(dense) {
				t.Errorf("%s K=%d: masked stats graphs = %d, want %d", kind, k, st.Graphs, len(dense))
			}
			if st.ShardCount != wantShards {
				t.Errorf("%s K=%d: masked stats report %d shards, want %d", kind, k, st.ShardCount, wantShards)
			}
			perShard := 0
			for _, sub := range st.Shards {
				perShard += sub.Graphs
			}
			if len(st.Shards) > 0 && perShard != len(dense) {
				t.Errorf("%s K=%d: masked per-shard graphs sum to %d, want the %d live ones", kind, k, perShard, len(dense))
			}
			if k == 1 {
				own := subs[0].Stats()
				own.Graphs = len(dense)
				if m.Name() != subs[0].Name() || !reflect.DeepEqual(st, own) {
					t.Errorf("%s K=1: masked view is %q with %+v, want its shard's %q with %+v", kind, m.Name(), st, subs[0].Name(), own)
				}
			}
			for qi, q := range queries {
				if got, expect := m.Filter(q), want.Filter(q); !sameInts(got, expect) {
					t.Errorf("%s K=%d q%d: Filter = %v, want %v", kind, k, qi, got, expect)
				}
				got, err := index.Answer(context.Background(), m, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				expect, err := index.Answer(context.Background(), want, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameInts(got, expect) {
					t.Errorf("%s K=%d q%d: Answer = %v, want %v", kind, k, qi, got, expect)
				}
			}
			if _, err := m.Verify(context.Background(), queries[0], -1); err == nil {
				t.Error("Verify(-1) did not error")
			}
			if _, err := m.Verify(context.Background(), queries[0], len(dense)); err == nil {
				t.Error("Verify(len) did not error")
			}
			// The shards own nothing, so a query after Close still answers.
			m.Close()
			if _, err := m.Verify(context.Background(), queries[0], 0); err != nil {
				t.Errorf("Verify after Close: %v", err)
			}
		}
		want.Close()
	}
}

// TestShardedMaskMismatchPanics pins the constructor's consistency check: an
// alive mask that does not cover the slot space is a caller bug, not a state
// to limp along in.
func TestShardedMaskMismatchPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := randomDataset(r, 3, 6, 2)
	x, err := index.BuildPath(context.Background(), ds, index.Options{MaxPathLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewShardedFrom with a mismatched mask did not panic")
		}
	}()
	index.NewShardedFrom(ds, []bool{true, false}, index.KindPath, []index.Index{x})
}

// TestShardedWithoutTablePanics: the merge extracts a query's features once
// and scans every shard's table, so a sub-index that keeps no table, or one
// at another path length, is a caller bug too.
func TestShardedWithoutTablePanics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := randomDataset(r, 4, 6, 2)
	build := func(sub []*graph.Graph, maxLen int) index.Index {
		x, err := index.BuildPath(context.Background(), sub, index.Options{MaxPathLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	even, odd := index.ShardDataset(ds, 0, 2), index.ShardDataset(ds, 1, 2)
	for name, subs := range map[string][]index.Index{
		"no table":          {build(even, 2), struct{ index.Index }{build(odd, 2)}},
		"other path length": {build(even, 2), build(odd, 3)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("NewShardedFrom did not panic")
				}
			}()
			index.NewShardedFrom(ds, nil, index.KindPath, subs)
		})
	}
}
