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

	_ "github.com/psi-graph/psi/internal/ggsx"
	_ "github.com/psi-graph/psi/internal/grapes"
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

func TestExportUnsupportedKind(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(1)), 4, 6, 2)
	x, err := index.BuildSharded(context.Background(), index.KindPath, ds, index.Options{Shards: 2})
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

func TestShardedSubsAndShardDataset(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(2)), 7, 6, 2)
	x, err := index.BuildSharded(context.Background(), index.KindPath, ds, index.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	subs := x.Subs()
	if len(subs) != 3 {
		t.Fatalf("Subs() = %d shards, want 3", len(subs))
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

// TestExportKeyFallback takes labels beyond the 12-bit range ftv.Key packs
// (the form query features are keyed by) through build, export, restore and
// lookup: the index stores and compares whole label sequences, so wide
// labels must round-trip like narrow ones.
func TestExportKeyFallback(t *testing.T) {
	big := graph.Label(1 << 13) // exceeds the packed-key label width
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
		t.Fatalf("fallback-key restore diverged: %v != %v", got, want)
	}
}
