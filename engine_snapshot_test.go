package psi_test

// Snapshot round-trip property tests at the engine surface: for every index
// kind portfolio × shard count × static/mutable, an engine loaded from a
// snapshot must answer byte-identically to the engine that saved it — and a
// restored mutable engine must stay in lockstep with the original under
// further identical mutations. Plus saves racing mutations, the
// options-vs-snapshot mismatch surface and the corrupt-file fail-closed
// guarantee.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	psi "github.com/psi-graph/psi"
)

// snapAnswers runs every query on the engine and collects the graph IDs.
func snapAnswers(t *testing.T, e *psi.Engine, queries []*psi.Graph) [][]int {
	t.Helper()
	out := make([][]int, len(queries))
	for i, q := range queries {
		res, err := e.Query(context.Background(), q, 0)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = res.GraphIDs
	}
	return out
}

func assertSameAnswers(t *testing.T, label string, want, got [][]int) {
	t.Helper()
	for i := range want {
		if !slices.Equal(want[i], got[i]) {
			t.Errorf("%s: query %d answered %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestEngineSnapshotRoundTripStatic: save a static engine (full index-kind
// portfolio) at several shard counts, load it with zero options, and demand
// identical answers, shard count and dataset.
func TestEngineSnapshotRoundTripStatic(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 3)
	kinds, err := psi.ParseIndexSpec("ftv,grapes,ggsx")
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*psi.Graph, 5)
	for i := range queries {
		queries[i] = psi.ExtractQuery(ds[i%len(ds)], 3+i%3, int64(40+i))
	}
	for _, shards := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "static.psnap")
		orig, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: kinds, Shards: shards})
		if err != nil {
			t.Fatalf("K=%d: %v", shards, err)
		}
		want := snapAnswers(t, orig, queries)
		if err := orig.SaveSnapshot(path); err != nil {
			t.Fatalf("K=%d: save: %v", shards, err)
		}
		loaded, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: path})
		if err != nil {
			t.Fatalf("K=%d: load: %v", shards, err)
		}
		if loaded.Mutable() {
			t.Errorf("K=%d: loaded static engine reports mutable", shards)
		}
		if loaded.Shards() != orig.Shards() {
			t.Errorf("K=%d: loaded Shards() = %d, want %d", shards, loaded.Shards(), orig.Shards())
		}
		if len(loaded.Dataset()) != len(ds) {
			t.Errorf("K=%d: loaded dataset has %d graphs, want %d", shards, len(loaded.Dataset()), len(ds))
		}
		assertSameAnswers(t, "loaded static", want, snapAnswers(t, loaded, queries))

		// Streamed answers agree too (exercises the restored merge path).
		for i, q := range queries {
			var ids []int
			if err := loaded.AnswerStream(context.Background(), q, func(id int) bool {
				ids = append(ids, id)
				return true
			}); err != nil {
				t.Fatalf("K=%d: stream: %v", shards, err)
			}
			if !slices.Equal(ids, want[i]) {
				t.Errorf("K=%d: streamed query %d = %v, want %v", shards, i, ids, want[i])
			}
		}

		// A re-save of the loaded engine must load again (save → load →
		// save → load is closed under the codec).
		again := filepath.Join(t.TempDir(), "again.psnap")
		if err := loaded.SaveSnapshot(again); err != nil {
			t.Fatalf("K=%d: re-save: %v", shards, err)
		}
		reloaded, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: again})
		if err != nil {
			t.Fatalf("K=%d: re-load: %v", shards, err)
		}
		assertSameAnswers(t, "reloaded static", want, snapAnswers(t, reloaded, queries))
		reloaded.Close()
		loaded.Close()
		orig.Close()
	}
}

// TestEngineSnapshotRoundTripMutable: churn a mutable engine, save, load,
// and demand the restored engine not only answer identically but continue
// identically — same handles, same epochs, same compaction points — under
// further lockstep mutations.
func TestEngineSnapshotRoundTripMutable(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 4)
	pool := mutablePool(90, 16)
	kinds := []string{"ftv", "grapes"}
	queries := make([]*psi.Graph, 4)
	for i := range queries {
		queries[i] = psi.ExtractQuery(ds[i%len(ds)], 3+i%3, int64(60+i))
	}
	for _, shards := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "mutable.psnap")
		orig, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
			Indexes: kinds, Shards: shards, Mutable: true, CompactEvery: 2,
		})
		if err != nil {
			t.Fatalf("K=%d: %v", shards, err)
		}
		// Churn: adds, a removal (leaves a tombstone), a replace.
		var handles []psi.GraphHandle
		for i := 0; i < 4; i++ {
			h, err := orig.AddGraph(context.Background(), pool[i])
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		if _, err := orig.RemoveGraph(context.Background(), handles[1]); err != nil {
			t.Fatal(err)
		}
		if err := orig.ReplaceGraph(context.Background(), handles[2], pool[4]); err != nil {
			t.Fatal(err)
		}
		want := snapAnswers(t, orig, queries)
		epoch := orig.Epoch()
		if err := orig.SaveSnapshot(path); err != nil {
			t.Fatalf("K=%d: save: %v", shards, err)
		}

		loaded, err := psi.NewDatasetEngine(nil, psi.EngineOptions{
			Snapshot: path, Mutable: true, CompactEvery: 2,
		})
		if err != nil {
			t.Fatalf("K=%d: load: %v", shards, err)
		}
		if !loaded.Mutable() {
			t.Fatalf("K=%d: loaded engine is not mutable", shards)
		}
		if loaded.Epoch() != epoch {
			t.Errorf("K=%d: loaded epoch %d, want %d", shards, loaded.Epoch(), epoch)
		}
		if !slices.Equal(loaded.Handles(), orig.Handles()) {
			t.Errorf("K=%d: loaded handles %v, want %v", shards, loaded.Handles(), orig.Handles())
		}
		assertSameAnswers(t, "loaded mutable", want, snapAnswers(t, loaded, queries))

		// Lockstep continuation on BOTH engines: identical mutations must
		// issue identical handles and keep answers identical — the restored
		// engine preserved the next-handle counter and tombstone schedule.
		for i := 5; i < 9; i++ {
			h1, err := orig.AddGraph(context.Background(), pool[i])
			if err != nil {
				t.Fatal(err)
			}
			h2, err := loaded.AddGraph(context.Background(), pool[i])
			if err != nil {
				t.Fatal(err)
			}
			if h1 != h2 {
				t.Fatalf("K=%d: lockstep add %d issued handles %d vs %d", shards, i, h1, h2)
			}
			if i%2 == 1 {
				c1, err := orig.RemoveGraph(context.Background(), h1)
				if err != nil {
					t.Fatal(err)
				}
				c2, err := loaded.RemoveGraph(context.Background(), h1)
				if err != nil {
					t.Fatal(err)
				}
				if c1 != c2 {
					t.Fatalf("K=%d: lockstep remove %d compacted %v vs %v", shards, i, c1, c2)
				}
			}
			if orig.Epoch() != loaded.Epoch() {
				t.Fatalf("K=%d: epochs diverged: %d vs %d", shards, orig.Epoch(), loaded.Epoch())
			}
			assertSameAnswers(t, "lockstep", snapAnswers(t, orig, queries), snapAnswers(t, loaded, queries))
		}
		loaded.Close()
		orig.Close()
	}
}

// TestEngineSnapshotResaveByteIdentical: the snapshot is the one place a
// location set changes form — expanded to vertex IDs on save, packed again on
// load — and the round trip loses nothing: an engine loaded from a snapshot
// saves the very bytes it was loaded from. Static and sharded, and mutable
// with a tombstoned slot, whose zero-vertex placeholder has no vertex count to
// pack the dead graph's locations against.
func TestEngineSnapshotResaveByteIdentical(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 6)
	kinds := []string{"ftv", "grapes", "ggsx"}
	for _, tc := range []struct {
		name string
		opts psi.EngineOptions
	}{
		{"static", psi.EngineOptions{Indexes: kinds}},
		{"static K=2", psi.EngineOptions{Indexes: kinds, Shards: 2}},
		{"mutable", psi.EngineOptions{Indexes: kinds, Mutable: true, CompactEvery: 100}},
		{"mutable K=2", psi.EngineOptions{Indexes: kinds, Shards: 2, Mutable: true, CompactEvery: 100}},
	} {
		orig, err := psi.NewDatasetEngine(ds, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.opts.Mutable {
			// One removal, far below the compaction threshold: the slot
			// stays, tombstoned, with its features still in the sub-indexes.
			h, err := orig.AddGraph(context.Background(), mutablePool(70, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, dead := range []psi.GraphHandle{orig.Handles()[1], h} {
				if compacted, err := orig.RemoveGraph(context.Background(), dead); err != nil || compacted {
					t.Fatalf("%s: remove: compacted=%v err=%v", tc.name, compacted, err)
				}
			}
		}
		first := filepath.Join(t.TempDir(), "first.psnap")
		if err := orig.SaveSnapshot(first); err != nil {
			t.Fatalf("%s: save: %v", tc.name, err)
		}
		orig.Close()
		loaded, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: first, Mutable: tc.opts.Mutable, CompactEvery: tc.opts.CompactEvery})
		if err != nil {
			t.Fatalf("%s: load: %v", tc.name, err)
		}
		second := filepath.Join(t.TempDir(), "second.psnap")
		if err := loaded.SaveSnapshot(second); err != nil {
			t.Fatalf("%s: re-save: %v", tc.name, err)
		}
		loaded.Close()
		a, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the re-saved snapshot (%d bytes) differs from the one it was loaded from (%d bytes)", tc.name, len(b), len(a))
		}
	}
}

// TestSnapshotRacingMutations is fault injection for a save that races the
// mutation API, as POST /snapshot does beside POST and DELETE /graphs: one
// goroutine adds and removes graphs, compactions included, while another
// saves again and again. Every file written must load, report an epoch the
// mutator committed and hold exactly that epoch's dataset, and answer
// byte-identically to a from-scratch engine over the dataset it loaded.
func TestSnapshotRacingMutations(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 5)
	kinds := []string{"ftv", "grapes"}
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: kinds, Shards: 2, Mutable: true, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// committed[epoch] is the dataset the mutator saw right after committing
	// the epoch; it is the only writer, and it is read after done closes.
	committed := map[uint64][]*psi.Graph{eng.Epoch(): eng.Dataset()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(21))
		supply := mutablePool(33, 8)
		for step := 0; step < 12; step++ {
			var err error
			if handles := eng.Handles(); len(handles) > 3 && r.Intn(2) == 0 {
				_, err = eng.RemoveGraph(context.Background(), handles[r.Intn(len(handles))])
			} else {
				_, err = eng.AddGraph(context.Background(), supply[step%len(supply)])
			}
			if err != nil {
				t.Errorf("step %d: %v", step, err)
				return
			}
			committed[eng.Epoch()] = eng.Dataset()
		}
	}()
	var paths []string
	for saving := true; saving; { // one more save once the mutator is done
		select {
		case <-done:
			saving = false
		default:
		}
		path := filepath.Join(t.TempDir(), "racing.psnap")
		if err := eng.SaveSnapshot(path); err != nil {
			t.Fatalf("save %d: %v", len(paths), err)
		}
		paths = append(paths, path)
	}
	epochs := map[uint64]bool{}
	for i, path := range paths {
		loaded, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: path, Mutable: true})
		if err != nil {
			t.Fatalf("file %d does not load: %v", i, err)
		}
		got := loaded.Dataset()
		want, ok := committed[loaded.Epoch()]
		if !ok {
			t.Fatalf("file %d holds epoch %d, which the mutator never committed", i, loaded.Epoch())
		}
		epochs[loaded.Epoch()] = true
		if !slices.EqualFunc(got, want, (*psi.Graph).Equal) {
			t.Errorf("file %d: epoch %d with %d graphs, not the %d the epoch committed", i, loaded.Epoch(), len(got), len(want))
		}
		queries := make([]*psi.Graph, 3)
		for qi := range queries {
			queries[qi] = psi.ExtractQuery(got[(i+qi)%len(got)], 3+qi, int64(i*3+qi))
		}
		assertSameAnswers(t, fmt.Sprintf("file %d", i), freshAnswers(t, got, kinds, queries), snapAnswers(t, loaded, queries))
		loaded.Close()
	}
	t.Logf("%d saves over %d of %d committed epochs", len(paths), len(epochs), len(committed))
	if len(epochs) < 2 {
		t.Errorf("%d saves all hold one epoch: no save raced a mutation", len(paths))
	}
}

// TestEngineSnapshotMismatch: every way the options can contradict the
// snapshot must fail closed — and a corrupted file must never produce an
// engine.
func TestEngineSnapshotMismatch(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 5)
	path := filepath.Join(t.TempDir(), "e.psnap")
	orig, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if err := orig.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		opts    psi.EngineOptions
		wantSub string
	}{
		{"mutable mismatch", psi.EngineOptions{Snapshot: path, Mutable: true}, "mutable"},
		{"shard mismatch", psi.EngineOptions{Snapshot: path, Shards: 3}, "shards"},
		{"kind mismatch", psi.EngineOptions{Snapshot: path, Indexes: []string{"ggsx"}}, "indexes"},
		{"kind subset", psi.EngineOptions{Snapshot: path, Indexes: []string{"ftv"}}, "indexes"},
		{"missing file", psi.EngineOptions{Snapshot: path + ".nope"}, ""},
	}
	for _, tc := range cases {
		if _, err := psi.NewDatasetEngine(nil, tc.opts); err == nil {
			t.Errorf("%s: load succeeded", tc.name)
		} else if tc.wantSub != "" && !strings.Contains(strings.ToLower(err.Error()), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}

	// Matching non-zero options are accepted.
	ok, err := psi.NewDatasetEngine(nil, psi.EngineOptions{
		Snapshot: path, Shards: 2, Indexes: []string{"grapes", "ftv"}, // order-insensitive
	})
	if err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}
	ok.Close()

	// A dataset alongside Snapshot is ambiguous, not silently resolved.
	if _, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Snapshot: path}); err == nil {
		t.Error("Snapshot with non-nil dataset succeeded")
	}

	// NFV engines have no snapshot surface.
	nfv, err := psi.NewEngine(ds[0], psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer nfv.Close()
	if err := nfv.SaveSnapshot(filepath.Join(t.TempDir(), "nfv.psnap")); err == nil {
		t.Error("NFV SaveSnapshot succeeded")
	}

	// Corrupt one byte mid-file: the load must fail with a checksum error,
	// never hand back a partial engine.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	bad := filepath.Join(t.TempDir(), "bad.psnap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: bad}); err == nil {
		t.Error("corrupted snapshot loaded")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt-load error %q does not mention checksum", err)
	}
}

// TestSnapshotFromParentCommit is the backward-compatibility fixture:
// testdata/parent_portfolio_k2.psnap was written by the commit before the
// index build moved to one shared extraction and flat postings
// (testdata/parent_portfolio_k2.go.txt is the program that wrote it: seven
// small graphs, one with labels in the thousands, one edgeless;
// ftv+grapes+ggsx at K=2). It predates orientation too: every path is in it
// under both spellings. Today's code must load it, answer as a fresh build
// over the same graphs does, and write it back — from the loaded engine and
// from the fresh build alike — to the same bytes, which hold each path once:
// still format v1, about half the index sections, readable again.
func TestSnapshotFromParentCommit(t *testing.T) {
	const fixture = "testdata/parent_portfolio_k2.psnap"
	old, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: fixture})
	if err != nil {
		t.Fatalf("loading the parent-written snapshot: %v", err)
	}
	defer loaded.Close()
	ds := loaded.Dataset()
	if len(ds) != 7 || loaded.Shards() != 2 {
		t.Fatalf("fixture loaded as %d graphs, %d shards; want 7, 2", len(ds), loaded.Shards())
	}
	fresh, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv", "grapes", "ggsx"}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	var queries []*psi.Graph
	for i, g := range ds[:6] { // the seventh graph is edgeless
		queries = append(queries, psi.ExtractQuery(g, 2+i%3, int64(70+i)))
	}
	queries = append(queries, psi.MustNewGraph("edgeless", []psi.Label{0}, nil))
	assertSameAnswers(t, "parent snapshot vs fresh build", snapAnswers(t, fresh, queries), snapAnswers(t, loaded, queries))
	resaved := map[string][]byte{}
	for name, e := range map[string]*psi.Engine{"loaded": loaded, "fresh": fresh} {
		path := filepath.Join(t.TempDir(), "resaved.psnap")
		if err := e.SaveSnapshot(path); err != nil {
			t.Fatalf("%s: re-save: %v", name, err)
		}
		if resaved[name], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		again, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: path})
		if err != nil {
			t.Fatalf("%s: loading the re-saved snapshot: %v", name, err)
		}
		assertSameAnswers(t, name+" re-saved vs fresh build", snapAnswers(t, fresh, queries), snapAnswers(t, again, queries))
		again.Close()
	}
	if !bytes.Equal(resaved["loaded"], resaved["fresh"]) {
		t.Errorf("loaded engine re-saves %d bytes, fresh build %d: not the same file", len(resaved["loaded"]), len(resaved["fresh"]))
	}
	// The graphs and the section table do not shrink; the features halve.
	if got := len(resaved["loaded"]); got < len(old)*45/100 || got > len(old)*65/100 {
		t.Errorf("re-saved snapshot is %d bytes, the both-spellings file %d: want roughly half", got, len(old))
	}
}
