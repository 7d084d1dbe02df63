package live_test

// Persistence-facing tests: ExportState/Restore must reproduce a store that
// is indistinguishable from the original — same epoch, same handles, same
// answers — and must keep agreeing after further identical mutations (handle
// and next-handle continuity). Plus the Current/Close stress test: under
// -race, snapshots taken against mutations and a final Close always answer,
// and nil is seen only after Close.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
)

// roundTripGrid pushes every table of the exported state through the
// snapshot codec contract — Export to flat features, Restore into a brand
// new instance over the same shard dataset — standing in for the on-disk
// write/read the snapshot package performs. Restoring into fresh instances
// also keeps ownership disjoint: the original store keeps its tables, the
// restored store adopts the copies.
func roundTripGrid(t *testing.T, state live.State) live.State {
	t.Helper()
	locals := make([][]*graph.Graph, state.Shards)
	for slot, g := range state.SlotGraphs {
		locals[slot%state.Shards] = append(locals[slot%state.Shards], g)
	}
	kind := index.TableKind(state.Kinds)
	fresh := make([]*index.Path, len(state.Tables))
	for s, sub := range state.Tables {
		x, err := index.Restore(kind, locals[s], sub.MaxPathLen(), index.Options{}, index.Export(sub))
		if err != nil {
			t.Fatalf("restore shard %d: %v", s, err)
		}
		fresh[s] = x
	}
	state.Tables = fresh
	return state
}

// assertStoresAgree compares the two stores' current snapshots: epoch,
// handle vector, dataset, and per-kind answers over the probe queries.
func assertStoresAgree(t *testing.T, a, b *live.Store, kinds []string) {
	t.Helper()
	sa, sb := a.Current(), b.Current()
	if sa.Epoch() != sb.Epoch() {
		t.Fatalf("epoch %d vs %d", sa.Epoch(), sb.Epoch())
	}
	if !slices.Equal(sa.Handles(), sb.Handles()) {
		t.Fatalf("handles %v vs %v", sa.Handles(), sb.Handles())
	}
	ga, gb := sa.Graphs(), sb.Graphs()
	if len(ga) != len(gb) {
		t.Fatalf("%d vs %d graphs", len(ga), len(gb))
	}
	for i := range ga {
		if !ga[i].Equal(gb[i]) {
			t.Fatalf("graph %d differs after restore", i)
		}
	}
	for _, kind := range kinds {
		for qi, q := range testQueries() {
			if wa, wb := answer(t, sa, kind, q), answer(t, sb, kind, q); !slices.Equal(wa, wb) {
				t.Errorf("%s q%d: %v vs %v after restore", kind, qi, wa, wb)
			}
		}
	}
}

// TestExportRestoreRoundTrip churns a store, exports its state, round-trips
// every sub-index through the flat-feature codec, restores, and demands the
// restored store match the original — then keeps mutating BOTH identically
// and demands they stay in lockstep, which proves the restored store
// preserved handle identity, the next-handle counter and tombstone
// schedule, not just the visible dataset.
func TestExportRestoreRoundTrip(t *testing.T) {
	kinds := index.Kinds()
	r := rand.New(rand.NewSource(42))
	ds := randomDataset(r, 6, 8, 2)
	st := newStore(t, ds, live.Options{
		Kinds: kinds, Shards: 2, CompactEvery: 3,
		Index: index.Options{MaxPathLen: testMaxPathLen},
	})

	// Churn: leave live slots, tombstoned slots, and a replaced slot behind.
	h, err := st.Add(context.Background(), randomDataset(r, 1, 8, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Remove(context.Background(), live.Handle(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Replace(context.Background(), h, randomDataset(r, 1, 8, 2)[0]); err != nil {
		t.Fatal(err)
	}

	state := exportState(t, st)
	if state.Epoch != st.Epoch() {
		t.Fatalf("exported epoch %d, store at %d", state.Epoch, st.Epoch())
	}
	if len(state.Tombs) != state.Shards {
		t.Fatalf("%d tombstone counters for %d shards", len(state.Tombs), state.Shards)
	}

	restored := restore(t, roundTripGrid(t, state), 3, index.Options{MaxPathLen: testMaxPathLen})
	if restored.Shards() != st.Shards() {
		t.Fatalf("restored Shards() = %d, want %d", restored.Shards(), st.Shards())
	}
	assertStoresAgree(t, st, restored, kinds)

	// Lockstep continuation: identical mutations must yield identical
	// handles, epochs, compaction points and answers on both stores.
	for step := 0; step < 6; step++ {
		g := randomDataset(r, 1, 8, 2)[0]
		h1, err := st.Add(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := restored.Add(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("step %d: original issued handle %d, restored %d", step, h1, h2)
		}
		if step%2 == 1 {
			c1, err := st.Remove(context.Background(), h1)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := restored.Remove(context.Background(), h1)
			if err != nil {
				t.Fatal(err)
			}
			if c1 != c2 {
				t.Fatalf("step %d: compaction diverged (%v vs %v)", step, c1, c2)
			}
		}
		assertStoresAgree(t, st, restored, kinds)
	}
}

// TestExportStateClosed: ExportState after Close must fail, not hand out a
// grid of closed sub-indexes.
func TestExportStateClosed(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	st := newStore(t, randomDataset(r, 2, 6, 2), live.Options{
		Kinds: []string{index.KindPath}, Index: index.Options{MaxPathLen: testMaxPathLen},
	})
	saved := 0
	save := func(live.State) error { saved++; return nil }
	if err := st.ExportState(save); err != nil || saved != 1 {
		t.Fatalf("ExportState before close: %v after %d saves", err, saved)
	}
	st.Close()
	if st.Current() != nil {
		t.Fatal("Current() non-nil after Close")
	}
	if err := st.ExportState(save); err == nil || saved != 1 {
		t.Fatalf("ExportState after Close: %v after %d saves, want an error and no save", err, saved)
	}
}

// exportState is ExportState for a test that reads the State after the save
// returns, which only a test that does not mutate the store meanwhile may.
func exportState(t *testing.T, st *live.Store) live.State {
	t.Helper()
	var state live.State
	if err := st.ExportState(func(s live.State) error { state = s; return nil }); err != nil {
		t.Fatal(err)
	}
	return state
}

// TestExportStateHoldsMutations: the save runs under the mutation lock, so a
// mutation started mid-save commits only after it, the save sees one epoch
// throughout, and the save's error is ExportState's.
func TestExportStateHoldsMutations(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	st := newStore(t, randomDataset(r, 2, 6, 2), live.Options{
		Kinds: []string{index.KindPath}, Index: index.Options{MaxPathLen: testMaxPathLen},
	})
	boom, g := errors.New("disk full"), randomDataset(r, 1, 6, 2)[0]
	added := make(chan error, 1)
	err := st.ExportState(func(s live.State) error {
		go func() {
			_, err := st.Add(context.Background(), g)
			added <- err
		}()
		select {
		case err := <-added:
			t.Errorf("a mutation committed mid-save (err %v)", err)
		case <-time.After(50 * time.Millisecond):
		}
		if st.Epoch() != s.Epoch {
			t.Errorf("the store moved to epoch %d during a save of epoch %d", st.Epoch(), s.Epoch)
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("ExportState = %v, want the save's error", err)
	}
	if err := <-added; err != nil {
		t.Fatalf("the mutation held back by the save: %v", err)
	}
	if st.Epoch() != 2 {
		t.Errorf("epoch %d after the save and one mutation, want 2", st.Epoch())
	}
}

// TestRestoreValidation: every malformed State must be rejected before a
// store is built.
func TestRestoreValidation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	st := newStore(t, randomDataset(r, 4, 6, 2), live.Options{
		Kinds: []string{index.KindPath}, Shards: 2,
		Index: index.Options{MaxPathLen: testMaxPathLen},
	})
	good := exportState(t, st)

	cases := []struct {
		name    string
		mutate  func(s *live.State)
		wantSub string
	}{
		{"zero shards", func(s *live.State) { s.Shards = 0 }, "shard count"},
		{"no kinds", func(s *live.State) { s.Kinds = nil }, "no index kinds"},
		{"alive length", func(s *live.State) { s.Alive = s.Alive[:1] }, "slot arrays"},
		{"handles length", func(s *live.State) { s.Handles = s.Handles[:1] }, "slot arrays"},
		{"tombs length", func(s *live.State) { s.Tombs = nil }, "tombstone counters"},
		{"grid shards", func(s *live.State) { s.Tables = s.Tables[:1] }, "tables for"},
		{"missing table", func(s *live.State) { s.Tables = []*index.Path{nil, s.Tables[1]} }, "no table"},
		{"table of another kind", func(s *live.State) { s.Kinds = []string{index.KindGrapes} }, "grapes one"},
		{"zero handle", func(s *live.State) {
			s.Handles = append([]live.Handle(nil), s.Handles...)
			s.Handles[0] = 0
		}, "non-positive handle"},
		{"reissued handle", func(s *live.State) { s.NextHandle = s.Handles[len(s.Handles)-1] }, "would reissue"},
		{"duplicate handle", func(s *live.State) {
			s.Handles = append([]live.Handle(nil), s.Handles...)
			s.Handles[1] = s.Handles[3]
		}, "owned by slots"},
		{"zero epoch", func(s *live.State) { s.Epoch = 0 }, "epoch"},
	}
	for _, tc := range cases {
		s := good
		tc.mutate(&s)
		if _, err := live.Restore(s, 0, index.Options{MaxPathLen: testMaxPathLen}); err == nil {
			t.Errorf("%s: Restore succeeded", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}

	// Duplicate-handle on DEAD slots is legal (placeholders share nothing);
	// a dead slot only needs a historically valid handle.
	if _, err := live.Restore(good, 0, index.Options{MaxPathLen: testMaxPathLen}); err != nil {
		t.Fatalf("unmodified state failed to restore: %v", err)
	}

	// Sub-index over the wrong shard dataset size.
	bad := good
	bad.Tables = []*index.Path{buildTable(t, index.KindPath, nil), good.Tables[1]}
	if _, err := live.Restore(bad, 0, index.Options{MaxPathLen: testMaxPathLen}); err == nil {
		t.Error("Restore accepted sub-index with wrong dataset size")
	} else if !strings.Contains(err.Error(), "shard holds") {
		t.Errorf("wrong-size error: %v", err)
	}
}

// TestCurrentCloseStress: four readers hammer Current while a mutator churns
// Add/Remove and then Closes the store mid-flight. Under -race, every
// snapshot a reader gets answers, a reader sees nil only after Close, and
// the closed store refuses mutations.
func TestCurrentCloseStress(t *testing.T) {
	for round := 0; round < 3; round++ {
		r := rand.New(rand.NewSource(int64(round)))
		st := newStore(t, randomDataset(r, 4, 6, 2), live.Options{
			Kinds: []string{index.KindPath}, Shards: 2, CompactEvery: 2,
			Index: index.Options{MaxPathLen: testMaxPathLen},
		})
		var wg sync.WaitGroup
		var closed, failed atomic.Bool
		q := pathQuery(0, 0, 1)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					snap := st.Current()
					if snap == nil {
						if !closed.Load() {
							failed.Store(true)
						}
						return
					}
					if _, err := index.Answer(context.Background(), snap.Table(), q, nil); err != nil {
						failed.Store(true)
					}
				}
			}()
		}
		var handles []live.Handle
		for step := 0; step < 30; step++ {
			if len(handles) == 0 || r.Intn(2) == 0 {
				h, err := st.Add(context.Background(), randomDataset(r, 1, 6, 2)[0])
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			} else {
				i := r.Intn(len(handles))
				if _, err := st.Remove(context.Background(), handles[i]); err != nil {
					t.Fatal(err)
				}
				handles = append(handles[:i], handles[i+1:]...)
			}
		}
		closed.Store(true)
		st.Close()
		wg.Wait()
		st.Close() // idempotent
		if failed.Load() {
			t.Fatalf("round %d: a reader saw nil before Close or a snapshot that did not answer", round)
		}
		if _, err := st.Add(context.Background(), randomDataset(r, 1, 6, 2)[0]); err == nil {
			t.Error("Add after Close did not error")
		}
		if _, err := st.Remove(context.Background(), 1); err == nil {
			t.Error("Remove after Close did not error")
		}
		if err := st.Replace(context.Background(), 1, randomDataset(r, 1, 6, 2)[0]); err == nil {
			t.Error("Replace after Close did not error")
		}
	}
}
