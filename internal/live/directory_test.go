package live_test

// The shared sequence directory across a store's life: built and restored
// grids share one across every kind and shard, inserts and compactions keep
// it, and only the shard that takes a sequence the directory lacks gets one of
// its own. The answers stay those of a from-scratch build throughout. The
// directory is also the evidence of how an insert reached each kind: GGSX
// through WithGraph, Grapes through a rebuild.

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/grapes"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
)

// flatRow returns the store's flat sub-indexes, shard by shard, and the
// shard datasets they index.
func flatRow(t *testing.T, st *live.Store) ([]*index.Path, [][]*graph.Graph) {
	t.Helper()
	state := exportState(t, st)
	row := make([]*index.Path, state.Shards)
	for s, sub := range state.Grid[index.KindPath] {
		row[s] = sub.(*index.Path)
	}
	locals := make([][]*graph.Graph, state.Shards)
	for slot, g := range state.SlotGraphs {
		locals[slot%state.Shards] = append(locals[slot%state.Shards], g)
	}
	return row, locals
}

// directories reports which shards share the directory of shard 0.
func directories(row []*index.Path) []bool {
	shared := make([]bool, len(row))
	for s, x := range row {
		shared[s] = x.Directory() == row[0].Directory()
	}
	return shared
}

// assertSharedRow checks that every shard of the row looks its features up in
// one directory and holds what an index of its own over its graphs holds.
func assertSharedRow(t *testing.T, tag string, st *live.Store) {
	t.Helper()
	row, locals := flatRow(t, st)
	for s, x := range row {
		if x.Directory() != row[0].Directory() {
			t.Errorf("%s: shard %d does not share shard 0's directory", tag, s)
		}
		own, err := index.BuildPath(context.Background(), locals[s], index.Options{MaxPathLen: testMaxPathLen})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exportOf(t, x), exportOf(t, own)) {
			t.Errorf("%s: shard %d exports differently from an index of its own", tag, s)
		}
	}
}

func exportOf(t *testing.T, x index.Index) []index.ExportedFeature {
	t.Helper()
	feats, _, err := index.Export(x)
	if err != nil {
		t.Fatal(err)
	}
	return feats
}

func assertCurrentParity(t *testing.T, st *live.Store, kinds []string) {
	t.Helper()
	snap := st.Current()
	assertParity(t, snap, kinds)
}

// TestFlatRowSharesDirectory follows one K = 4 store through a build, a
// restore and every kind of mutation. The first four graphs each carry a
// label of their own, so no shard's sequences cover another's and the shared
// directory is a union none of them built.
func TestFlatRowSharesDirectory(t *testing.T) {
	const k = 4
	r := rand.New(rand.NewSource(27))
	var ds []*graph.Graph
	for s := range k {
		ds = append(ds, graph.MustNew("own-label", []graph.Label{0, graph.Label(2 + s), 1}, [][2]int{{0, 1}, {1, 2}}))
	}
	ds = append(ds, randomDataset(r, 8, 8, 2)...)
	opts := live.Options{
		Kinds: []string{index.KindPath}, Shards: k, CompactEvery: 2,
		Index: index.Options{MaxPathLen: testMaxPathLen},
	}
	st, err := live.NewStore(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	assertSharedRow(t, "NewStore", st)

	state := exportState(t, st)
	restored, err := live.Restore(roundTripGrid(t, state), opts.CompactEvery, opts.Index)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	assertSharedRow(t, "Restore", restored)
	assertStoresAgree(t, st, restored, opts.Kinds)

	// An insert whose sequences the directory holds, some of them new to the
	// shard: slot 12 is shard 0's, the graph shard 1's.
	if _, err := st.Add(context.Background(), ds[1]); err != nil {
		t.Fatal(err)
	}
	assertSharedRow(t, "Add of known sequences", st)
	assertCurrentParity(t, st, opts.Kinds)

	// Two removals from shard 1 compact it; the rebuilt shard adopts the
	// directory.
	for i, h := range []live.Handle{2, 6} {
		compacted, err := st.Remove(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		if compacted != (i == 1) {
			t.Fatalf("removal %d compacted: %v", i, compacted)
		}
	}
	assertSharedRow(t, "compaction", st)
	assertCurrentParity(t, st, opts.Kinds)

	// A brand-new label inserted into shard 1 (slot 13) gives that shard a
	// superset directory and leaves the others sharing theirs.
	row, _ := flatRow(t, st)
	before := row[0].Directory()
	if _, err := st.Add(context.Background(), graph.MustNew("new-label", []graph.Label{1, 9}, [][2]int{{0, 1}})); err != nil {
		t.Fatal(err)
	}
	row, _ = flatRow(t, st)
	if got, want := directories(row), []bool{true, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("after an insert of a new label: shards sharing shard 0's directory %v, want %v", got, want)
	}
	if row[0].Directory() != before || row[1].Directory().Len() <= before.Len() {
		t.Errorf("after an insert of a new label: shard 1's directory holds %d sequences, the shared one %d", row[1].Directory().Len(), before.Len())
	}
	assertCurrentParity(t, st, opts.Kinds)

	// A replacement bringing a brand-new label rebuilds shard 2 (handle 3 is
	// slot 2) with a directory of its own.
	if err := st.Replace(context.Background(), 3, graph.MustNew("new-label", []graph.Label{0, 8}, [][2]int{{0, 1}})); err != nil {
		t.Fatal(err)
	}
	row, _ = flatRow(t, st)
	if got, want := directories(row), []bool{true, false, false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("after a replacement with a new label: shards sharing shard 0's directory %v, want %v", got, want)
	}
	if row[0].Directory() != before {
		t.Error("a replacement rebound a shard it does not own")
	}
	assertCurrentParity(t, st, opts.Kinds)
}

// assertOneDirectory checks that every cell of the store's grid, whatever its
// kind and shard, looks its features up in one directory.
func assertOneDirectory(t *testing.T, tag string, st *live.Store) {
	t.Helper()
	state := exportState(t, st)
	var dir *index.PathDirectory
	for _, kind := range state.Kinds {
		for s, sub := range state.Grid[kind] {
			d := sub.(interface{ Table() *index.Path }).Table().Directory()
			if dir == nil {
				dir = d
			}
			if d != dir {
				t.Errorf("%s: %s shard %d does not share the grid's directory", tag, kind, s)
			}
		}
	}
}

// TestGridSharesOneDirectory: the flat kinds and Grapes, every shard of each,
// share one directory after the build and after a restore from exported
// features, which gives every cell a directory of its own until the store
// shares them.
func TestGridSharesOneDirectory(t *testing.T) {
	kinds := []string{index.KindPath, index.KindGGSX, grapes.Kind}
	r := rand.New(rand.NewSource(29))
	opts := live.Options{Kinds: kinds, Shards: 3, Index: index.Options{MaxPathLen: testMaxPathLen}}
	st, err := live.NewStore(context.Background(), randomDataset(r, 9, 8, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	assertOneDirectory(t, "NewStore", st)
	restored, err := live.Restore(roundTripGrid(t, exportState(t, st)), 0, opts.Index)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	assertOneDirectory(t, "Restore", restored)
	assertStoresAgree(t, st, restored, kinds)
}

// TestAddInsertsGGSXAndRebuildsGrapes: an Add reaches GGSX through WithGraph
// and Grapes, which is no Inserter, through a shard-local rebuild, whose
// location sets bound the new graph's candidate vertices as a fresh build's
// do. The two shards carry disjoint labels and the new graph a label neither
// has: an insert keeps the other shard's sequences in the superset directory
// it writes, while a rebuild would index its graphs in a directory holding
// theirs alone.
func TestAddInsertsGGSXAndRebuildsGrapes(t *testing.T) {
	kinds := []string{index.KindGGSX, grapes.Kind}
	ds := []*graph.Graph{
		graph.MustNew("shard 0", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}}),
		graph.MustNew("shard 1", []graph.Label{2, 3, 2}, [][2]int{{0, 1}, {1, 2}}),
	}
	st, err := live.NewStore(context.Background(), ds, live.Options{
		Kinds: kinds, Shards: 2, Index: index.Options{MaxPathLen: testMaxPathLen},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := graph.MustNew("new label", []graph.Label{0, 4, 1, 4}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if _, err := st.Add(context.Background(), g); err != nil { // slot 2: shard 0, local ID 1
		t.Fatal(err)
	}
	state := exportState(t, st)
	gg := state.Grid[index.KindGGSX][0].(*index.Path)
	if st := gg.Stats(); gg.Name() != "GGSX" || st.Name != "GGSX" || st.Kind != index.KindGGSX {
		t.Errorf("the inserted GGSX shard is %q, reporting %q of kind %q", gg.Name(), st.Name, st.Kind)
	}
	if gg.Directory().Len() <= gg.Stats().Features {
		t.Errorf("GGSX shard 0 indexes %d sequences of a %d-sequence directory: rebuilt, not inserted", gg.Stats().Features, gg.Directory().Len())
	}
	sub := state.Grid[grapes.Kind][0]
	if _, ok := sub.(index.Inserter); ok {
		t.Fatal("Grapes implements index.Inserter, so inserts would drop its locations")
	}
	fresh := grapes.Build([]*graph.Graph{ds[0], g}, grapes.Options{MaxPathLen: testMaxPathLen})
	hit := false
	for _, q := range []*graph.Graph{
		pathQuery(0, 4, 1),
		graph.MustNew("edge", []graph.Label{4, 1}, [][2]int{{0, 1}}),
		graph.MustNew("star", []graph.Label{4, 0, 1}, [][2]int{{0, 1}, {0, 2}}),
		g,
	} {
		got, gotOK := sub.(*grapes.Index).CandidateVertices(q, 1)
		want, wantOK := fresh.CandidateVertices(q, 1)
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Errorf("%s: candidate vertices %v, %v; a fresh build's %v, %v", q.Name(), got, gotOK, want, wantOK)
		}
		hit = hit || wantOK
	}
	if !hit {
		t.Error("no query passes the new graph's filter; the test checks nothing")
	}
	assertCurrentParity(t, st, kinds)
}
