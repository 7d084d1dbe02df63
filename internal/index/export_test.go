package index_test

// Export/restore contract tests: for every registered kind, the exported
// feature arrays must be deterministic, and an index restored from them must
// answer byte-identically to the original — the correctness core of the
// on-disk snapshot format (internal/snapshot), exercised here without any
// file I/O in between.

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/gen"
	_ "github.com/psi-graph/psi/internal/ggsx"
	"github.com/psi-graph/psi/internal/grapes"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

func TestExportRestoreParityAllKinds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds := randomDataset(r, 12, 9, 3)
	queries := make([]*graph.Graph, 6)
	for i := range queries {
		queries[i] = extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(4))
	}
	for _, kind := range index.Kinds() {
		t.Run(kind, func(t *testing.T) {
			x, err := index.Build(context.Background(), kind, ds, index.Options{MaxPathLen: 3, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			feats, maxLen, err := index.Export(x)
			if err != nil {
				t.Fatalf("export %s: %v", kind, err)
			}
			if maxLen != 3 {
				t.Fatalf("exported MaxPathLen = %d, want 3", maxLen)
			}
			// Determinism: a second export yields the same features in the
			// same order.
			again, _, err := index.Export(x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(feats, again) {
				t.Fatalf("%s export is not deterministic", kind)
			}
			for i := 1; i < len(feats); i++ {
				if index.CompareLabelSeqs(feats[i-1].Labels, feats[i].Labels) >= 0 {
					t.Fatalf("%s export not in canonical order at %d", kind, i)
				}
			}
			y, err := index.Restore(kind, ds, maxLen, index.Options{Workers: 2}, feats)
			if err != nil {
				t.Fatalf("restore %s: %v", kind, err)
			}
			defer y.Close()
			if y.Stats().Features != x.Stats().Features || y.Stats().Nodes != x.Stats().Nodes {
				t.Fatalf("%s restored shape %+v != built %+v", kind, y.Stats(), x.Stats())
			}
			// Location sets are packed on restore by the rule the extraction
			// stored them by, and expand to the IDs they were packed from.
			if xs, ys := x.Stats(), y.Stats(); xs.LocationBytes != ys.LocationBytes || xs.LocationRows != ys.LocationRows || xs.LocationLists != ys.LocationLists {
				t.Fatalf("%s restored location sets %+v != built %+v", kind, ys, xs)
			}
			if back, _, err := index.Export(y); err != nil || !reflect.DeepEqual(back, feats) {
				t.Fatalf("%s: export of the restored index differs from the export it was restored from (%v)", kind, err)
			}
			for qi, q := range queries {
				want, err := index.Answer(context.Background(), x, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := index.Answer(context.Background(), y, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s query %d: restored answers %v != built %v", kind, qi, got, want)
				}
			}
		})
	}
}

// withMirrors turns an export into what a build wrote before indexes kept each
// path under its oriented spelling only: every feature that is not a
// palindrome appears a second time, reversed, with the same postings.
func withMirrors(feats []index.ExportedFeature) []index.ExportedFeature {
	out := slices.Clone(feats)
	for _, f := range feats {
		mirror := slices.Clone(f.Labels)
		slices.Reverse(mirror)
		if !slices.Equal(mirror, f.Labels) {
			out = append(out, index.ExportedFeature{Labels: mirror, Postings: f.Postings})
		}
	}
	slices.SortFunc(out, func(a, b index.ExportedFeature) int { return index.CompareLabelSeqs(a.Labels, b.Labels) })
	return out
}

// TestRestoreFoldsBothSpellings: features exported before orientation hold
// every path under both spellings. Restore keeps the oriented one — the
// restored index is the one today's export restores to — but only where the
// reversed spelling is seen to be a mirror: one whose oriented twin is missing,
// or has other postings, counts or locations, is refused, since dropping it
// would answer "in no graph" for a path the file says occurs.
func TestRestoreFoldsBothSpellings(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(11)), 6, 9, 3)
	for _, kind := range index.Kinds() {
		t.Run(kind, func(t *testing.T) {
			x, err := index.Build(context.Background(), kind, ds, index.Options{MaxPathLen: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			feats, maxLen, err := index.Export(x)
			if err != nil {
				t.Fatal(err)
			}
			old := withMirrors(feats)
			if len(old) <= len(feats) {
				t.Fatal("no feature has a mirror; the test needs some")
			}
			y, err := index.Restore(kind, ds, maxLen, index.Options{}, old)
			if err != nil {
				t.Fatalf("restoring a both-spellings export: %v", err)
			}
			defer y.Close()
			if back, _, err := index.Export(y); err != nil || !reflect.DeepEqual(back, feats) {
				t.Fatalf("a both-spellings export restores to %d features, today's export has %d (%v)", len(back), len(feats), err)
			}
			// A reversed spelling to break, and its oriented twin.
			rev := slices.IndexFunc(old, func(f index.ExportedFeature) bool {
				return f.Labels[0] > f.Labels[len(f.Labels)-1] && len(f.Postings) > 0
			})
			twin := slices.IndexFunc(old, func(f index.ExportedFeature) bool {
				mirror := slices.Clone(f.Labels)
				slices.Reverse(mirror)
				return slices.Equal(mirror, old[rev].Labels)
			})
			broken := func(edit func(ps []index.FeaturePosting) []index.FeaturePosting) []index.ExportedFeature {
				bad := slices.Clone(old)
				bad[rev].Postings = edit(slices.Clone(bad[rev].Postings))
				return bad
			}
			for name, bad := range map[string][]index.ExportedFeature{
				"twin missing": slices.Delete(slices.Clone(old), twin, twin+1),
				"count differs": broken(func(ps []index.FeaturePosting) []index.FeaturePosting {
					ps[0].Count++
					return ps
				}),
				"shorter list": broken(func(ps []index.FeaturePosting) []index.FeaturePosting { return ps[1:] }),
				"other locations": broken(func(ps []index.FeaturePosting) []index.FeaturePosting {
					ps[0].Locations = []int32{0} // a path touches two vertices at least
					return ps
				}),
			} {
				if z, err := index.Restore(kind, ds, maxLen, index.Options{}, bad); err == nil {
					z.Close()
					t.Errorf("%s: restored; a reversed spelling that is not a mirror must be refused", name)
				}
			}
		})
	}
}

func TestExportUnsupportedKind(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(1)), 4, 6, 2)
	x, err := index.BuildSharded(context.Background(), index.KindPath, ds, 2, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// The Sharded wrapper is decomposed shard-by-shard by the snapshot
	// layer, never exported whole.
	if _, _, err := index.Export(x); err == nil {
		t.Fatal("exporting a Sharded wrapper should fail")
	}
	if _, err := index.Restore("no-such-kind", ds, 3, index.Options{}, nil); err == nil {
		t.Fatal("restoring an unregistered kind should fail")
	}
	bad := []index.ExportedFeature{{
		Labels:   []graph.Label{1},
		Postings: []index.FeaturePosting{{GraphID: 99, Count: 1}},
	}}
	if _, err := index.Restore(index.KindPath, ds, 3, index.Options{}, bad); err == nil {
		t.Fatal("restoring an out-of-range posting should fail")
	}
}

// TestRestoreRejectsMalformedFeatures: the indexes search features, postings
// and locations by their canonical order and Grapes indexes a per-graph
// bitset by its locations, so Restore refuses input that breaks the order or
// the bounds instead of answering (or panicking) from it later.
func TestRestoreRejectsMalformedFeatures(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(3)), 5, 8, 2)
	x, err := index.Build(context.Background(), "grapes", ds, index.Options{MaxPathLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	good, maxLen, err := index.Export(x)
	if err != nil {
		t.Fatal(err)
	}
	// A feature with two postings or more, the first with two locations or more.
	// (Not the first feature, so that it has a predecessor to swap with.)
	at := 1 + slices.IndexFunc(good[1:], func(f index.ExportedFeature) bool {
		return len(f.Postings) >= 2 && len(f.Postings[0].Locations) >= 2
	})
	if at < 1 {
		t.Fatal("fixture has no feature to corrupt")
	}
	n := int32(ds[good[at].Postings[0].GraphID].N())
	cases := []struct {
		name    string
		corrupt func(feats []index.ExportedFeature, f *index.ExportedFeature)
	}{
		{"feature order", func(feats []index.ExportedFeature, _ *index.ExportedFeature) {
			feats[at-1], feats[at] = feats[at], feats[at-1]
		}},
		{"posting order", func(_ []index.ExportedFeature, f *index.ExportedFeature) {
			f.Postings[0], f.Postings[1] = f.Postings[1], f.Postings[0]
		}},
		{"graph ID range", func(_ []index.ExportedFeature, f *index.ExportedFeature) {
			f.Postings[len(f.Postings)-1].GraphID = len(ds)
		}},
		{"location beyond the graph", func(_ []index.ExportedFeature, f *index.ExportedFeature) {
			locs := f.Postings[0].Locations
			locs[len(locs)-1] = n
		}},
		{"negative location", func(_ []index.ExportedFeature, f *index.ExportedFeature) {
			f.Postings[0].Locations[0] = -1
		}},
		{"location order", func(_ []index.ExportedFeature, f *index.ExportedFeature) {
			locs := f.Postings[0].Locations
			locs[0], locs[1] = locs[1], locs[0]
		}},
		{"duplicate location", func(_ []index.ExportedFeature, f *index.ExportedFeature) {
			locs := f.Postings[0].Locations
			locs[1] = locs[0]
		}},
	}
	for _, tc := range cases {
		feats := make([]index.ExportedFeature, len(good))
		for i, f := range good {
			feats[i] = index.ExportedFeature{Labels: f.Labels, Postings: slices.Clone(f.Postings)}
			for j := range feats[i].Postings {
				feats[i].Postings[j].Locations = slices.Clone(f.Postings[j].Locations)
			}
		}
		tc.corrupt(feats, &feats[at])
		if y, err := index.Restore("grapes", ds, maxLen, index.Options{}, feats); err == nil {
			y.Close()
			t.Errorf("%s: Restore accepted the corrupted features", tc.name)
		}
	}
	if y, err := index.Restore("grapes", ds, maxLen, index.Options{}, good); err != nil {
		t.Fatalf("Restore rejected the untouched export: %v", err)
	} else {
		y.Close()
	}
}

// TestRestoreOntoZeroVertexPlaceholder: a mutable store's snapshot replaces a
// tombstoned slot's graph with a zero-vertex placeholder while the sub-index
// still carries the dead graph's postings. Their locations have no vertex
// count to be packed against — a bitset row over no vertices holds nothing —
// so they stay lists, survive a second export untouched (the file stays
// byte-identical), and are never read by a query.
func TestRestoreOntoZeroVertexPlaceholder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ds := randomDataset(r, 5, 80, 8) // rows of 2 words: sets of 2 and 3 vertices stay lists
	x, err := index.Build(context.Background(), "grapes", ds, index.Options{MaxPathLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	feats, maxLen, err := index.Export(x)
	if err != nil {
		t.Fatal(err)
	}
	const dead = 2
	slots := slices.Clone(ds)
	slots[dead] = graph.NewBuilder("live:dead-slot").MustBuild()
	y, err := index.Restore("grapes", slots, maxLen, index.Options{}, feats)
	if err != nil {
		t.Fatalf("restore over a placeholder: %v", err)
	}
	defer y.Close()
	if back, _, err := index.Export(y); err != nil || !reflect.DeepEqual(back, feats) {
		t.Fatalf("the placeholder's locations did not survive the round trip (%v)", err)
	}
	xs, ys := x.Stats(), y.Stats()
	if xs.LocationRows == 0 || xs.LocationLists == 0 {
		t.Fatalf("fixture stores %d rows and %d lists; want both forms", xs.LocationRows, xs.LocationLists)
	}
	if ys.LocationRows >= xs.LocationRows || ys.LocationRows+ys.LocationLists != xs.LocationRows+xs.LocationLists {
		t.Errorf("restored %d rows + %d lists from %d + %d: the dead graph's rows should have become lists", ys.LocationRows, ys.LocationLists, xs.LocationRows, xs.LocationLists)
	}
	g := y.(*grapes.Index)
	for qi := 0; qi < 6; qi++ {
		q := extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(3))
		for id := range ds {
			want, err := x.Verify(context.Background(), q, id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := y.Verify(context.Background(), q, id)
			if err != nil {
				t.Fatal(err)
			}
			if id == dead {
				want = false
				if vs, ok := g.CandidateVertices(q, id); ok || vs != nil {
					t.Errorf("query %d: CandidateVertices on the placeholder = %v, %v", qi, vs, ok)
				}
			}
			if got != want {
				t.Errorf("query %d graph %d: restored Verify = %v, want %v", qi, id, got, want)
			}
		}
	}
}

// TestLocationStats: Stats makes the adaptive choice of location-set form
// visible. Label-poor graphs, whose every feature covers most of a graph, are
// stored as rows only; a sparse graph over many labels, where nearly every
// path is its own feature, keeps lists — there a row per set would be
// hundreds of megabytes — and holds exactly the vertex IDs the former
// []int32-per-posting layout held, minus 20 of that layout's 24 header bytes
// a set.
func TestLocationStats(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   gen.SyntheticConfig
		forms func(rows, lists int) bool
	}{
		{"label-poor", gen.SyntheticConfig{NumGraphs: 2, AvgNodes: 300, NodeSpread: 100, Density: 8.0 / 300, Labels: 4},
			func(rows, lists int) bool { return lists == 0 && rows > 0 }},
		{"sparse many-label", gen.SyntheticConfig{NumGraphs: 1, AvgNodes: 8000, Density: 3.0 / 8000, Labels: 300},
			func(rows, lists int) bool { return lists > 100*max(rows, 1) }},
	} {
		ds := gen.Synthetic(tc.cfg, 20170321)
		x, err := index.Build(context.Background(), "grapes", ds, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := x.Stats()
		feats, _, err := index.Export(x)
		x.Close()
		if err != nil {
			t.Fatal(err)
		}
		var sets, ids, best int64
		for _, f := range feats {
			for _, p := range f.Postings {
				sets++
				ids += int64(len(p.Locations))
				best += min(4*int64(len(p.Locations)), 8*int64((ds[p.GraphID].N()+63)/64))
			}
		}
		if int64(st.LocationRows+st.LocationLists) != sets || !tc.forms(st.LocationRows, st.LocationLists) {
			t.Errorf("%s: %d rows + %d lists for %d sets", tc.name, st.LocationRows, st.LocationLists, sets)
		}
		if want := best + 4*sets; st.LocationBytes != want {
			t.Errorf("%s: LocationBytes = %d, want %d (each set in its smaller form + a 4-byte reference)", tc.name, st.LocationBytes, want)
		}
		if slabs, before := st.LocationBytes-4*sets, 4*ids; slabs > before {
			t.Errorf("%s: the slabs hold %d bytes, the ID lists they replace held %d", tc.name, slabs, before)
		}
		t.Logf("%s: %d sets (%d rows, %d lists) in %d bytes; as []int32 per posting: %d", tc.name, sets, st.LocationRows, st.LocationLists, st.LocationBytes, 4*ids+24*sets)
	}
	for _, kind := range []string{index.KindPath, "ggsx"} {
		x, err := index.Build(context.Background(), kind, randomDataset(rand.New(rand.NewSource(1)), 3, 8, 2), index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := x.Stats(); st.LocationBytes != 0 || st.LocationRows != 0 || st.LocationLists != 0 {
			t.Errorf("%s keeps no locations but reports %+v", kind, st)
		}
		x.Close()
	}
}

// TestShardedSubsAndShardDataset: the sub-indexes of a grid row index
// exactly ShardDataset's partition, the one the snapshot loader restores
// each shard over.
func TestShardedSubsAndShardDataset(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(2)), 7, 6, 2)
	grid, err := index.BuildGrid(context.Background(), []string{index.KindPath}, ds, 3, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	subs := grid[0] // flat path indexes: nothing to close
	if len(subs) != 3 {
		t.Fatalf("grid row = %d shards, want 3", len(subs))
	}
	for s, sub := range subs {
		want := index.ShardDataset(ds, s, 3)
		if !reflect.DeepEqual(sub.Dataset(), want) {
			t.Fatalf("shard %d dataset mismatch", s)
		}
		for i, g := range want {
			if ds[s+i*3] != g {
				t.Fatalf("ShardDataset order broken at shard %d pos %d", s, i)
			}
		}
	}
}

func TestCompareLabelSeqs(t *testing.T) {
	cases := []struct {
		a, b []graph.Label
		want int
	}{
		{nil, nil, 0},
		{[]graph.Label{1}, nil, 1},
		{nil, []graph.Label{1}, -1},
		{[]graph.Label{1, 2}, []graph.Label{1, 2}, 0},
		{[]graph.Label{1, 2}, []graph.Label{1, 3}, -1},
		{[]graph.Label{2}, []graph.Label{1, 9}, 1},
		{[]graph.Label{1}, []graph.Label{1, 0}, -1},
	}
	for _, tc := range cases {
		if got := index.CompareLabelSeqs(tc.a, tc.b); got != tc.want {
			t.Fatalf("CompareLabelSeqs(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestExportWideLabels takes labels wider than a byte or two through build,
// export, restore and lookup: the index stores and compares whole label
// sequences, so wide labels must round-trip like narrow ones.
func TestExportWideLabels(t *testing.T) {
	big := graph.Label(1 << 13)
	g := graph.MustNew("big", []graph.Label{big, big + 1}, [][2]int{{0, 1}})
	ds := []*graph.Graph{g}
	x, err := index.Build(context.Background(), index.KindPath, ds, index.Options{MaxPathLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	feats, maxLen, err := index.Export(x)
	if err != nil {
		t.Fatal(err)
	}
	y, err := index.Restore(index.KindPath, ds, maxLen, index.Options{}, feats)
	if err != nil {
		t.Fatal(err)
	}
	want, err := index.Answer(context.Background(), x, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := index.Answer(context.Background(), y, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("wide-label restore diverged: %v != %v", got, want)
	}
}
