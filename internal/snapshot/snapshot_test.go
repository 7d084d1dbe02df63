package snapshot

// White-box tests of the container format and the model codec: round trips
// must be byte-identical in answers, and every corruption — any single
// flipped byte, any missing or shape-inconsistent section — must fail
// closed before an index or graph escapes.

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
)

func testDataset(n int) []*graph.Graph {
	r := rand.New(rand.NewSource(11))
	ds := make([]*graph.Graph, n)
	for i := range ds {
		b := graph.NewBuilder("g")
		nv := 5 + r.Intn(5)
		for v := 0; v < nv; v++ {
			b.AddVertex(graph.Label(r.Intn(3)))
		}
		for v := 1; v < nv; v++ {
			if err := b.AddLabeledEdge(r.Intn(v), v, graph.Label(r.Intn(2))); err != nil {
				panic(err) // a fresh edge between existing vertices
			}
		}
		ds[i] = b.MustBuild()
	}
	return ds
}

// buildModel builds the model of a store serving kinds over ds at K = k, its
// table for each shard built on its own.
func buildModel(t *testing.T, ds []*graph.Graph, kinds []string, k int) *Model {
	t.Helper()
	m := &Model{State: live.State{Shards: k, Kinds: kinds, SlotGraphs: ds}}
	for s := 0; s < k; s++ {
		sub, err := index.BuildTables(context.Background(), index.TableKind(kinds), index.ShardDataset(ds, s, k), 1, index.Options{MaxPathLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		m.Tables = append(m.Tables, sub[0])
	}
	m.State = neverMutated(m.State)
	return m
}

// save writes m to a fresh file and returns its path and bytes.
func save(t *testing.T, m *Model) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.psi")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// answers answers queries over the tables under kind's verifier.
func answers(t *testing.T, ds []*graph.Graph, kind string, tables []*index.Path, queries []*graph.Graph) [][]int {
	t.Helper()
	v, err := index.NewVerifier(kind, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := index.NewShardedFrom(ds, nil, tables, v)
	out := make([][]int, len(queries))
	for i, q := range queries {
		ids, err := index.Answer(context.Background(), x, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ids
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := testDataset(9)
	kinds := index.Kinds()
	for _, k := range []int{1, 3} {
		m := buildModel(t, ds, kinds, k)
		path, data := save(t, m)
		got, err := Load(path, index.Options{})
		if err != nil {
			t.Fatalf("Load k=%d: %v", k, err)
		}
		if got.Mutable || got.Shards != k || !reflect.DeepEqual(got.Kinds, kinds) {
			t.Fatalf("meta mismatch: %+v", got)
		}
		// A static file leaves the never-mutated store's state out, and Load
		// fills it back in.
		if r, err := parse(path, data); err != nil || r.sections["live/alive"] != nil {
			t.Fatalf("static file holds live sections (parse err %v)", err)
		}
		if got.Epoch != 1 || got.NextHandle != live.Handle(len(ds)+1) || !reflect.DeepEqual(got.Alive, m.Alive) ||
			!reflect.DeepEqual(got.Handles, m.Handles) || !reflect.DeepEqual(got.Tombs, m.Tombs) {
			t.Fatalf("static state not filled in: %+v", got.State)
		}
		if !slices.EqualFunc(ds, got.SlotGraphs, func(a, b *graph.Graph) bool { return a.Equal(b) && a.Name() == b.Name() }) {
			t.Fatalf("graphs not reconstructed identically: %v", got.SlotGraphs)
		}
		for _, kind := range kinds {
			want := answers(t, ds, kind, m.Tables, ds[:4])
			if have := answers(t, got.SlotGraphs, kind, got.Tables, ds[:4]); !reflect.DeepEqual(want, have) {
				t.Fatalf("k=%d kind=%s: restored answers %v != built %v", k, kind, have, want)
			}
		}
	}
}

func TestSaveLoadDeterministicBytes(t *testing.T) {
	m := buildModel(t, testDataset(6), []string{index.KindPath}, 2)
	_, b1 := save(t, m)
	if _, b2 := save(t, m); !bytes.Equal(b1, b2) {
		t.Fatal("two saves of the same model produced different bytes")
	}
}

func TestMutableModelRoundTrip(t *testing.T) {
	ds := testDataset(5)
	// Slot space: slot 2 is a dead placeholder, shard count 2 (so shard 0
	// holds slots 0,2,4 — including the placeholder — and shard 1 slots 1,3).
	placeholder := graph.NewBuilder("live:dead-slot").MustBuild()
	slots := []*graph.Graph{ds[0], ds[1], placeholder, ds[3], ds[4]}
	m := buildModel(t, slots, []string{index.KindPath, "ggsx"}, 2)
	m.Mutable, m.Epoch, m.NextHandle = true, 7, 9
	m.Alive = []bool{true, true, false, true, true}
	m.Handles = []live.Handle{1, 2, 3, 4, 5}
	m.Tombs = []int{1, 0}
	path, _ := save(t, m)
	got, err := Load(path, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mutable || got.Epoch != 7 || got.NextHandle != 9 || !reflect.DeepEqual(got.Alive, m.Alive) ||
		!reflect.DeepEqual(got.Handles, m.Handles) || !reflect.DeepEqual(got.Tombs, m.Tombs) {
		t.Fatalf("live state mangled: %+v", got.State)
	}
	if got.SlotGraphs[2].N() != 0 || got.SlotGraphs[2].Name() != "live:dead-slot" {
		t.Fatal("placeholder slot not reconstructed")
	}
	want := answers(t, slots, index.KindPath, m.Tables, slots[:2])
	if have := answers(t, got.SlotGraphs, index.KindPath, got.Tables, slots[:2]); !reflect.DeepEqual(want, have) {
		t.Fatalf("mutable restored answers diverged: %v != %v", have, want)
	}
}

// TestEveryByteCorruptionFailsClosed flips every single byte of a small
// snapshot in turn; each variant must fail to load — the corruption either
// hits the magic, the version, the section table, or exactly one
// checksummed payload. The flips go through Load's in-memory half, one of
// them through a file on disk too.
func TestEveryByteCorruptionFailsClosed(t *testing.T) {
	path, data := save(t, buildModel(t, testDataset(3), []string{index.KindPath}, 1))
	checksumErrs := 0
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if _, err := decode(path, mut, index.Options{}); err == nil {
			t.Fatalf("flipping byte %d of %d still loaded", i, len(data))
		} else if strings.Contains(err.Error(), "checksum") {
			checksumErrs++
		}
	}
	if checksumErrs == 0 {
		t.Fatal("no corruption surfaced as a checksum error")
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, index.Options{}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("a file with its middle byte flipped: Load error %v, want a checksum error", err)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	// Wrong version: a valid header with the version field bumped, which
	// invalidates the table CRC too, but the version is checked first.
	w := &writer{}
	w.add("meta", []byte{1, 2, 3})
	if err := w.writeFile(filepath.Join(dir, "version")); err != nil {
		t.Fatal(err)
	}
	version, _ := os.ReadFile(filepath.Join(dir, "version"))
	version[8] = 99
	for _, tc := range []struct {
		name string
		data []byte // nil: no file
		want string
	}{
		{"absent", nil, "no such file"},
		{"short", []byte("PSIS"), "too short"},
		{"notsnap", []byte("definitely not a snapshot file"), "magic"},
		{"version", version, "version"},
	} {
		path := filepath.Join(dir, tc.name)
		if tc.data != nil {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Load(path, index.Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// expectLoadError writes a structurally valid container with the given
// sections and expects Load to fail mentioning want.
func expectLoadError(t *testing.T, name string, sections map[string][]byte, want string) {
	t.Helper()
	w := &writer{}
	for _, n := range slices.Sorted(maps.Keys(sections)) {
		w.add(n, sections[n])
	}
	path := filepath.Join(t.TempDir(), "c.psi")
	if err := w.writeFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, index.Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: Load error %v, want one mentioning %q", name, err, want)
	}
}

func encMeta(mutable bool, shards int, kinds []string, maxLen int) []byte {
	var b buf
	b.bool(mutable)
	b.u32(uint32(shards))
	b.u64(1) // epoch
	b.u64(1) // next handle
	b.u32(uint32(len(kinds)))
	for _, k := range kinds {
		b.str(k)
		b.u32(uint32(maxLen))
	}
	return b.b
}

func encI32s(v ...int32) []byte {
	var b buf
	i32s(&b, v)
	return b.b
}

// names encodes a dataset's graph names.
func names(ns ...string) []byte {
	var b buf
	b.u64(uint64(len(ns)))
	for _, n := range ns {
		b.str(n)
	}
	return b.b
}

func emptyFeatures(prefix string) map[string][]byte {
	out := map[string][]byte{}
	for _, n := range []string{"featlens", "featlabels", "postlens", "postgids", "postcnts", "loclens", "locs"} {
		out[prefix+n] = encI32s()
	}
	return out
}

func TestLoadShapeValidation(t *testing.T) {
	// base is an empty static ftv store at K = 1; oneGraph adds one
	// two-vertex graph, and onePosting one feature with one posting in it.
	base := emptyFeatures("ix/ftv/0/")
	maps.Copy(base, map[string][]byte{
		"meta": encMeta(false, 1, []string{index.KindPath}, 3), "ds/names": names(),
		"ds/nverts": encI32s(), "ds/labels": encI32s(), "ds/offsets": encI32s(), "ds/nbrs": encI32s(), "ds/elabs": encI32s(),
	})
	oneGraph := map[string][]byte{"ds/names": names("g"), "ds/nverts": encI32s(2), "ds/labels": encI32s(0, 0),
		"ds/offsets": encI32s(0, 1, 2), "ds/nbrs": encI32s(1, 0), "ds/elabs": encI32s(0, 0)}
	onePosting := func(count int32) map[string][]byte {
		return map[string][]byte{"ix/ftv/0/featlens": encI32s(1), "ix/ftv/0/featlabels": encI32s(0), "ix/ftv/0/postlens": encI32s(1),
			"ix/ftv/0/postgids": encI32s(0), "ix/ftv/0/postcnts": encI32s(count), "ix/ftv/0/loclens": encI32s(0)}
	}
	var alive, handles buf
	alive.bools([]bool{true})
	i64s(&handles, []live.Handle(nil))
	for _, tc := range []struct {
		name  string
		edits []map[string][]byte // applied to base in turn; a nil payload deletes the section
		want  string
	}{
		{"missing section", []map[string][]byte{{"ds/nbrs": nil}}, "missing section"},
		{"zero shards", []map[string][]byte{{"meta": encMeta(false, 0, []string{index.KindPath}, 3)}}, "shard count"},
		{"no kinds", []map[string][]byte{{"meta": encMeta(false, 1, nil, 3)}}, "no index kinds"},
		{"truncated meta", []map[string][]byte{{"meta": {0, 1}}}, "meta"},
		{"unknown kind", []map[string][]byte{{"meta": encMeta(false, 1, []string{"no-such-kind"}, 3)}, emptyFeatures("ix/no-such-kind/0/")}, "unknown kind"},
		{"count mismatch", []map[string][]byte{{"ds/nverts": encI32s(4)}}, "vertex counts"}, // one count, zero names
		{"posting/feature mismatch", []map[string][]byte{{"ix/ftv/0/postlens": encI32s(1)}}, "posting counts"},
		{"label overflow", []map[string][]byte{{"ix/ftv/0/featlens": encI32s(2), "ix/ftv/0/postlens": encI32s(0)}}, "label length"},
		{"posting overflow", []map[string][]byte{{"ix/ftv/0/featlens": encI32s(0), "ix/ftv/0/postlens": encI32s(3)}}, "posting length"},
		{"slot arrays", []map[string][]byte{{"meta": encMeta(true, 1, []string{index.KindPath}, 3),
			"live/alive": alive.b, "live/handles": handles.b, "live/tombs": encI32s(0)}}, "slot arrays disagree"},
		// A posting's graph ID beyond the (empty) shard dataset.
		{"gid range", []map[string][]byte{onePosting(1), {"ix/ftv/0/postgids": encI32s(5)}}, "out of range"},
		{"location range", []map[string][]byte{oneGraph, onePosting(1), {"ix/ftv/0/loclens": encI32s(1), "ix/ftv/0/locs": encI32s(7)}}, "location"},
		// Posting counts no extraction records.
		{"count 0", []map[string][]byte{oneGraph, onePosting(0)}, "feature 0 holds count 0"},
		{"count -1", []map[string][]byte{oneGraph, onePosting(-1)}, "feature 0 holds count -1"},
		// Vertex 0 lists two neighbours and vertex 1 none: FromCSR's catch.
		{"asymmetric graph", []map[string][]byte{oneGraph, {"ds/offsets": encI32s(0, 2, 2), "ds/nbrs": encI32s(1, 1)}}, "graph"},
	} {
		s := maps.Clone(base)
		for _, edit := range tc.edits {
			for k, v := range edit {
				if s[k] = v; v == nil {
					delete(s, k)
				}
			}
		}
		expectLoadError(t, tc.name, s, tc.want)
	}
}

func TestSaveValidation(t *testing.T) {
	ds := testDataset(3)
	for _, tc := range []struct {
		name string
		edit func(m *Model)
		want string
	}{
		{"zero shards", func(m *Model) { m.Shards = 0 }, "shard count"},
		{"no kinds", func(m *Model) { m.Kinds = nil }, "no index kinds"},
		{"grid/shard mismatch", func(m *Model) { m.Shards = 2; m.State = neverMutated(m.State) }, "tables for"}, // one table
		{"slot array mismatch", func(m *Model) { m.Mutable, m.Alive = true, []bool{true} }, "slot arrays"},
		// A static file leaves the store state out, so a static model must
		// hold the state a load fills back in: a tombstone would be lost.
		{"static model with a tombstone", func(m *Model) { m.Alive[1] = false }, "never-mutated"},
		// A "grapes" section needs a table that keeps locations.
		{"grapes section from a table without locations", func(m *Model) { m.Kinds = []string{index.KindPath, index.KindGrapes} }, "keeps no locations"},
	} {
		m := buildModel(t, ds, []string{index.KindPath}, 1)
		tc.edit(m)
		if err := Save(filepath.Join(t.TempDir(), "x"), m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Save error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestSaveAtomicReplace(t *testing.T) {
	m := buildModel(t, testDataset(3), []string{index.KindPath}, 1)
	path, _ := save(t, m)
	// Saving over an existing snapshot must replace it whole and leave no
	// temp file behind.
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, index.Options{}); err != nil {
		t.Fatalf("re-saved snapshot unreadable: %v", err)
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("files after save: %v (%v)", entries, err)
	}
}

// TestPortfolioBuildDeterministic: one {ftv, grapes, ggsx} build over K
// shards — a single feature extraction, one table per shard — at pool sizes
// 1 and 4, and separate single-shard builds (buildModel), all export
// identical features and serialize to identical snapshot bytes; and the
// "ftv" and "ggsx" sections written from the one table are byte for byte the
// sections an ftv-only store writes.
func TestPortfolioBuildDeterministic(t *testing.T) {
	ds := testDataset(10)
	kinds := []string{index.KindPath, "grapes", "ggsx"}
	sections := func(b []byte, kind string, shard int) [][]byte {
		t.Helper()
		r, err := parse("snap.psi", b)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, arr := range []string{"featlens", "featlabels", "postlens", "postgids", "postcnts", "loclens", "locs"} {
			sec, err := r.section(ixPrefix(kind, shard) + arr)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sec)
		}
		return out
	}
	for _, k := range []int{1, 3} {
		separate := buildModel(t, ds, kinds, k)
		_, wantBytes := save(t, separate)
		for _, workers := range []int{1, 4} {
			pool := exec.New(workers)
			tables, err := index.BuildTables(context.Background(), index.TableKind(kinds), ds, k, index.Options{MaxPathLen: 3, Pool: pool})
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			for s, sub := range tables {
				if !reflect.DeepEqual(index.Export(sub), index.Export(separate.Tables[s])) {
					t.Errorf("K=%d workers=%d: shard %d exports differ between the one build and the shard's own", k, workers, s)
				}
			}
			m := &Model{State: neverMutated(live.State{Shards: k, Kinds: kinds, SlotGraphs: ds, Tables: tables})}
			if _, got := save(t, m); !bytes.Equal(got, wantBytes) {
				t.Errorf("K=%d workers=%d: snapshot bytes differ from the separate builds'", k, workers)
			}
		}
		_, flat := save(t, buildModel(t, ds, []string{index.KindPath}, k))
		for s := range k {
			for _, kind := range []string{index.KindPath, index.KindGGSX} {
				if !reflect.DeepEqual(sections(wantBytes, kind, s), sections(flat, index.KindPath, s)) {
					t.Errorf("K=%d shard %d: the %s sections differ from an ftv-only store's", k, s, kind)
				}
			}
		}
	}
}
