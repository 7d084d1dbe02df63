package snapshot

// White-box tests of the container format and the model codec: round trips
// must be byte-identical in answers, and every corruption — any single
// flipped byte, any missing or shape-inconsistent section — must fail
// closed before an index or graph escapes.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/psi-graph/psi/internal/exec"
	_ "github.com/psi-graph/psi/internal/ggsx"
	_ "github.com/psi-graph/psi/internal/grapes"
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

func buildModel(t *testing.T, ds []*graph.Graph, kinds []string, k int) *Model {
	t.Helper()
	m := &Model{State: live.State{Shards: k, Kinds: kinds, SlotGraphs: ds, Grid: map[string][]index.Index{}}}
	for _, kind := range kinds {
		subs := make([]index.Index, k)
		for s := 0; s < k; s++ {
			sub, err := index.Build(context.Background(), kind, index.ShardDataset(ds, s, k), index.Options{MaxPathLen: 3})
			if err != nil {
				t.Fatal(err)
			}
			subs[s] = sub
		}
		m.Grid[kind] = subs
	}
	m.State = neverMutated(m.State)
	return m
}

func answers(t *testing.T, ds []*graph.Graph, kind string, subs []index.Index, queries []*graph.Graph) [][]int {
	t.Helper()
	x := index.NewShardedFrom(ds, nil, kind, subs)
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
	queries := ds[:4]
	for _, k := range []int{1, 3} {
		m := buildModel(t, ds, kinds, k)
		path := filepath.Join(t.TempDir(), "snap.psi")
		if err := Save(path, m); err != nil {
			t.Fatalf("Save k=%d: %v", k, err)
		}
		got, err := Load(path, index.Options{})
		if err != nil {
			t.Fatalf("Load k=%d: %v", k, err)
		}
		if got.Mutable || got.Shards != k || !reflect.DeepEqual(got.Kinds, kinds) {
			t.Fatalf("meta mismatch: %+v", got)
		}
		// A static file leaves the never-mutated store's state out, and Load
		// fills it back in.
		if r, err := open(path); err != nil || r.sections["live/alive"] != nil {
			t.Fatalf("static file holds live sections (open err %v)", err)
		}
		if got.Epoch != 1 || got.NextHandle != live.Handle(len(ds)+1) || !reflect.DeepEqual(got.Alive, m.Alive) ||
			!reflect.DeepEqual(got.Handles, m.Handles) || !reflect.DeepEqual(got.Tombs, m.Tombs) {
			t.Fatalf("static state not filled in: %+v", got.State)
		}
		if len(got.SlotGraphs) != len(ds) {
			t.Fatalf("got %d graphs, want %d", len(got.SlotGraphs), len(ds))
		}
		for i := range ds {
			if !ds[i].Equal(got.SlotGraphs[i]) || ds[i].Name() != got.SlotGraphs[i].Name() {
				t.Fatalf("graph %d not reconstructed identically", i)
			}
		}
		for _, kind := range kinds {
			want := answers(t, ds, kind, m.Grid[kind], queries)
			have := answers(t, got.SlotGraphs, kind, got.Grid[kind], queries)
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("k=%d kind=%s: restored answers %v != built %v", k, kind, have, want)
			}
		}
	}
}

func TestSaveLoadDeterministicBytes(t *testing.T) {
	ds := testDataset(6)
	m := buildModel(t, ds, []string{index.KindPath}, 2)
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := Save(p1, m); err != nil {
		t.Fatal(err)
	}
	if err := Save(p2, m); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !reflect.DeepEqual(b1, b2) {
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
	m.Mutable = true
	m.Epoch = 7
	m.NextHandle = 9
	m.Alive = []bool{true, true, false, true, true}
	m.Handles = []live.Handle{1, 2, 3, 4, 5}
	m.Tombs = []int{1, 0}
	path := filepath.Join(t.TempDir(), "snap.psi")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mutable || got.Epoch != 7 || got.NextHandle != 9 {
		t.Fatalf("live counters mangled: %+v", got)
	}
	if !reflect.DeepEqual(got.Alive, m.Alive) || !reflect.DeepEqual(got.Handles, m.Handles) || !reflect.DeepEqual(got.Tombs, m.Tombs) {
		t.Fatalf("live arrays mangled: %+v", got)
	}
	if got.SlotGraphs[2].N() != 0 || got.SlotGraphs[2].Name() != "live:dead-slot" {
		t.Fatal("placeholder slot not reconstructed")
	}
	want := answers(t, slots, index.KindPath, m.Grid[index.KindPath], slots[:2])
	have := answers(t, got.SlotGraphs, index.KindPath, got.Grid[index.KindPath], slots[:2])
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("mutable restored answers diverged: %v != %v", have, want)
	}
}

// TestEveryByteCorruptionFailsClosed flips every single byte of a small
// snapshot in turn; each variant must fail to load — the corruption either
// hits the magic, the version, the section table, or exactly one
// checksummed payload.
func TestEveryByteCorruptionFailsClosed(t *testing.T) {
	ds := testDataset(3)
	m := buildModel(t, ds, []string{index.KindPath}, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.psi")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.psi")
	checksumErrs := 0
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad, index.Options{}); err == nil {
			t.Fatalf("flipping byte %d of %d still loaded", i, len(data))
		} else if strings.Contains(err.Error(), "checksum") {
			checksumErrs++
		}
	}
	if checksumErrs == 0 {
		t.Fatal("no corruption surfaced as a checksum error")
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "absent"), index.Options{}); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	short := filepath.Join(dir, "short")
	os.WriteFile(short, []byte("PSIS"), 0o644)
	if _, err := Load(short, index.Options{}); err == nil || !strings.Contains(err.Error(), "too short") {
		t.Fatalf("short file: %v", err)
	}
	notSnap := filepath.Join(dir, "notsnap")
	os.WriteFile(notSnap, []byte("definitely not a snapshot file"), 0o644)
	if _, err := Load(notSnap, index.Options{}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	// Wrong version: take a valid header and bump the version field.
	w := &writer{}
	w.add("meta", []byte{1, 2, 3})
	vpath := filepath.Join(dir, "version")
	if err := w.writeFile(vpath); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(vpath)
	data[8] = 99 // version byte — invalidates the table CRC too, but version is checked first
	os.WriteFile(vpath, data, 0o644)
	if _, err := Load(vpath, index.Options{}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
}

// corruptContainer writes a structurally valid container with the given
// sections and expects Load to fail mentioning want.
func expectLoadError(t *testing.T, name string, sections map[string][]byte, want string) {
	t.Helper()
	w := &writer{}
	order := []string{"meta", "ds/names", "ds/nverts", "ds/labels", "ds/offsets", "ds/nbrs", "ds/elabs",
		"live/alive", "live/handles", "live/tombs"}
	seen := map[string]bool{}
	for _, n := range order {
		if b, ok := sections[n]; ok {
			w.add(n, b)
			seen[n] = true
		}
	}
	for n, b := range sections {
		if !seen[n] {
			w.add(n, b)
		}
	}
	path := filepath.Join(t.TempDir(), "c.psi")
	if err := w.writeFile(path); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path, index.Options{})
	if err == nil {
		t.Fatalf("%s: corrupt container loaded", name)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: error %q does not mention %q", name, err, want)
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

func encI32s(v []int32) []byte {
	var b buf
	i32s(&b, v)
	return b.b
}

func emptyDataset() map[string][]byte {
	var names buf
	names.u64(0)
	return map[string][]byte{
		"ds/names": names.b, "ds/nverts": encI32s(nil), "ds/labels": encI32s(nil),
		"ds/offsets": encI32s(nil), "ds/nbrs": encI32s(nil), "ds/elabs": encI32s(nil),
	}
}

func emptyFeatures(prefix string) map[string][]byte {
	out := map[string][]byte{}
	for _, n := range []string{"featlens", "featlabels", "postlens", "postgids", "postcnts", "loclens", "locs"} {
		out[prefix+n] = encI32s(nil)
	}
	return out
}

func TestLoadShapeValidation(t *testing.T) {
	base := func() map[string][]byte {
		s := emptyDataset()
		s["meta"] = encMeta(false, 1, []string{index.KindPath}, 3)
		for k, v := range emptyFeatures("ix/ftv/0/") {
			s[k] = v
		}
		return s
	}

	s := base()
	delete(s, "ds/nbrs")
	expectLoadError(t, "missing section", s, "missing section")

	s = base()
	s["meta"] = encMeta(false, 0, []string{index.KindPath}, 3)
	expectLoadError(t, "zero shards", s, "shard count")

	s = base()
	s["meta"] = encMeta(false, 1, nil, 3)
	expectLoadError(t, "no kinds", s, "no index kinds")

	s = base()
	s["meta"] = []byte{0, 1}
	expectLoadError(t, "truncated meta", s, "meta")

	s = base()
	s["meta"] = encMeta(false, 1, []string{"no-such-kind"}, 3)
	for k, v := range emptyFeatures("ix/no-such-kind/0/") {
		s[k] = v
	}
	expectLoadError(t, "unknown kind", s, "no restorer")

	s = base()
	s["ds/nverts"] = encI32s([]int32{4}) // one count, zero names
	expectLoadError(t, "count mismatch", s, "vertex counts")

	s = base()
	s["ix/ftv/0/postlens"] = encI32s([]int32{1}) // 1 posting count, 0 featlens
	expectLoadError(t, "posting/feature mismatch", s, "posting counts")

	s = base()
	s["ix/ftv/0/featlens"] = encI32s([]int32{2})
	s["ix/ftv/0/postlens"] = encI32s([]int32{0})
	expectLoadError(t, "label overflow", s, "label length")

	s = base()
	s["ix/ftv/0/featlens"] = encI32s([]int32{0})
	s["ix/ftv/0/postlens"] = encI32s([]int32{3})
	expectLoadError(t, "posting overflow", s, "posting length")

	// Mutable meta with disagreeing slot arrays.
	s = base()
	s["meta"] = encMeta(true, 1, []string{index.KindPath}, 3)
	var alive, handles buf
	alive.bools([]bool{true})
	i64s(&handles, []live.Handle(nil))
	var tombs buf
	i32s(&tombs, []int32{0})
	s["live/alive"], s["live/handles"], s["live/tombs"] = alive.b, handles.b, tombs.b
	expectLoadError(t, "slot arrays", s, "slot arrays disagree")

	// Posting graph ID beyond the (empty) shard dataset.
	s = base()
	s["ix/ftv/0/featlens"] = encI32s([]int32{1})
	s["ix/ftv/0/featlabels"] = encI32s([]int32{1})
	s["ix/ftv/0/postlens"] = encI32s([]int32{1})
	s["ix/ftv/0/postgids"] = encI32s([]int32{5})
	s["ix/ftv/0/postcnts"] = encI32s([]int32{1})
	s["ix/ftv/0/loclens"] = encI32s([]int32{0})
	expectLoadError(t, "gid range", s, "out of range")

	// Location beyond the graph's vertex count.
	s = base()
	var names buf
	names.u64(1)
	names.str("g")
	s["ds/names"] = names.b
	s["ds/nverts"] = encI32s([]int32{2})
	s["ds/labels"] = encI32s([]int32{0, 0})
	s["ds/offsets"] = encI32s([]int32{0, 1, 2})
	s["ds/nbrs"] = encI32s([]int32{1, 0})
	s["ds/elabs"] = encI32s([]int32{0, 0})
	s["ix/ftv/0/featlens"] = encI32s([]int32{1})
	s["ix/ftv/0/featlabels"] = encI32s([]int32{0})
	s["ix/ftv/0/postlens"] = encI32s([]int32{1})
	s["ix/ftv/0/postgids"] = encI32s([]int32{0})
	s["ix/ftv/0/postcnts"] = encI32s([]int32{1})
	s["ix/ftv/0/loclens"] = encI32s([]int32{1})
	s["ix/ftv/0/locs"] = encI32s([]int32{7})
	expectLoadError(t, "location range", s, "location")

	// A structurally broken graph must be caught by FromCSR.
	s = base()
	names = buf{}
	names.u64(1)
	names.str("g")
	s["ds/names"] = names.b
	s["ds/nverts"] = encI32s([]int32{2})
	s["ds/labels"] = encI32s([]int32{0, 0})
	s["ds/offsets"] = encI32s([]int32{0, 2, 2}) // vertex 0 lists two nbrs, vertex 1 none
	s["ds/nbrs"] = encI32s([]int32{1, 1})
	s["ds/elabs"] = encI32s([]int32{0, 0})
	expectLoadError(t, "asymmetric graph", s, "graph")
}

func TestSaveValidation(t *testing.T) {
	ds := testDataset(3)
	if err := Save("x", &Model{State: live.State{Shards: 0, Kinds: []string{"ftv"}}}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if err := Save("x", &Model{State: live.State{Shards: 1}}); err == nil {
		t.Fatal("no kinds accepted")
	}
	m := buildModel(t, ds, []string{index.KindPath}, 1)
	m.Shards = 2 // grid has 1 sub-index
	m.State = neverMutated(m.State)
	if err := Save("x", m); err == nil || !strings.Contains(err.Error(), "sub-indexes") {
		t.Fatalf("grid/shard mismatch: %v", err)
	}
	m = buildModel(t, ds, []string{index.KindPath}, 1)
	m.Mutable = true
	m.Alive = []bool{true} // wrong length
	if err := Save("x", m); err == nil || !strings.Contains(err.Error(), "slot arrays") {
		t.Fatalf("slot array mismatch: %v", err)
	}
	// A static file leaves the store state out, so a static model must hold
	// the state a load fills back in: a tombstone would be lost.
	m = buildModel(t, ds, []string{index.KindPath}, 1)
	m.Alive[1] = false
	if err := Save("x", m); err == nil || !strings.Contains(err.Error(), "never-mutated") {
		t.Fatalf("static model with a tombstone: %v", err)
	}
	// A kind whose index cannot export (Sharded wrapper) must fail Save.
	sharded, err := index.BuildSharded(context.Background(), index.KindPath, ds, 2, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	m = &Model{State: neverMutated(live.State{Shards: 1, Kinds: []string{"wrapped"}, SlotGraphs: ds,
		Grid: map[string][]index.Index{"wrapped": {sharded}}})}
	if err := Save("x", m); err == nil || !strings.Contains(err.Error(), "export") {
		t.Fatalf("unexportable kind: %v", err)
	}
}

func TestSaveAtomicReplace(t *testing.T) {
	ds := testDataset(3)
	m := buildModel(t, ds, []string{index.KindPath}, 1)
	path := filepath.Join(t.TempDir(), "snap.psi")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	// Saving over an existing snapshot must replace it whole.
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, index.Options{}); err != nil {
		t.Fatalf("re-saved snapshot unreadable: %v", err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files after save: %v", entries)
	}
}

// TestPortfolioBuildDeterministic: one {ftv, grapes, ggsx} portfolio build
// over a K-way grid — a single feature extraction — at pool sizes 1 and 4,
// and separate single-kind, single-shard builds (buildModel), all export
// identical features and serialize to identical snapshot bytes.
func TestPortfolioBuildDeterministic(t *testing.T) {
	ds := testDataset(10)
	kinds := []string{index.KindPath, "grapes", "ggsx"}
	save := func(m *Model) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "snap.psi")
		if err := Save(path, m); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, k := range []int{1, 3} {
		separate := buildModel(t, ds, kinds, k)
		wantBytes := save(separate)
		for _, workers := range []int{1, 4} {
			pool := exec.New(workers)
			grid, err := index.BuildGrid(context.Background(), kinds, ds, k, index.Options{MaxPathLen: 3, Pool: pool})
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			m := &Model{State: neverMutated(live.State{Shards: k, Kinds: kinds, SlotGraphs: ds, Grid: map[string][]index.Index{}})}
			for i, kind := range kinds {
				m.Grid[kind] = grid[i]
				for s, sub := range grid[i] {
					got, _, err := index.Export(sub)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := index.Export(separate.Grid[kind][s])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("K=%d workers=%d: %s shard %d exports differ between the portfolio and the single-kind build", k, workers, kind, s)
					}
				}
			}
			if !reflect.DeepEqual(save(m), wantBytes) {
				t.Errorf("K=%d workers=%d: portfolio snapshot bytes differ from the single-kind builds'", k, workers)
			}
		}
	}
}
