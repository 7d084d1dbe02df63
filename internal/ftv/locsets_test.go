package ftv

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
)

// randomSet draws a set of the vertices 0..n-1: empty, sparse, around the
// row/list threshold, or dense.
func randomSet(r *rand.Rand, n int) []int32 {
	var want int
	switch words := Words(n); r.Intn(5) {
	case 0:
		want = 0
	case 1:
		want = 1 + r.Intn(3)
	case 2:
		want = 2*words - 2 + r.Intn(4) // straddles the threshold
	case 3:
		want = r.Intn(n + 1)
	default:
		want = n
	}
	want = max(0, min(want, n))
	ids := make([]int32, 0, want)
	for _, v := range r.Perm(n)[:want] {
		ids = append(ids, int32(v))
	}
	slices.Sort(ids)
	return ids
}

// TestLocSetsPackExpand: packing ascending IDs and expanding them again is the
// identity, so is expanding a row and packing the IDs; the stored form is the
// smaller of the two; Union, Members and a copy into another slab agree with
// the IDs.
func TestLocSetsPackExpand(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 300, 8000} {
		words := Words(n)
		var packed, fromRows LocSets
		var sets [][]int32
		var refs, rowRefs []LocRef
		for trial := 0; trial < 200; trial++ {
			ids := randomSet(r, n)
			sets = append(sets, ids)
			refs = append(refs, packed.AppendList(ids, words))
			row := make([]uint64, words)
			for _, v := range ids {
				row[v>>6] |= 1 << (v & 63)
			}
			rowRefs = append(rowRefs, fromRows.AppendRow(row))
		}
		// Both ways of arriving store the same slab: the form is a function
		// of the set.
		if !reflect.DeepEqual(packed, fromRows) {
			t.Fatalf("n=%d: sets packed from IDs and from rows are stored differently", n)
		}
		if !slices.Equal(refs, rowRefs) {
			t.Fatalf("n=%d: references differ between the two packings", n)
		}
		// A copy behind another graph's sets, as FoldTrie lays shards out.
		var moved LocSets
		moved.AppendList([]int32{0}, 1)
		moved.AppendList([]int32{0, 1, 5}, 1)
		rowBase, listBase := moved.AppendAll(&packed)

		wantBytes, wantRows := int64(0), 0
		for i, ids := range sets {
			isRow := refs[i] >= 0
			if isRow != RowForm(len(ids), words) {
				t.Fatalf("n=%d: set of %d stored as row=%v", n, len(ids), isRow)
			}
			if isRow {
				wantRows++
				wantBytes += 8 * int64(words)
				if 8*words > 4*len(ids) {
					t.Fatalf("n=%d: a row of %d bytes holds a set whose list is %d", n, 8*words, 4*len(ids))
				}
			} else {
				wantBytes += 4 * int64(len(ids))
				if 4*len(ids) > 8*words && words > 0 {
					t.Fatalf("n=%d: a list of %d bytes holds a set whose row is %d", n, 4*len(ids), 8*words)
				}
			}
			for name, at := range map[string]struct {
				s *LocSets
				r LocRef
			}{"packed": {&packed, refs[i]}, "moved": {&moved, refs[i].Shifted(rowBase, listBase)}} {
				if got := at.s.AppendIDs(nil, at.r, words); !slices.Equal(got, ids) {
					t.Fatalf("n=%d %s: expanded %v, packed %v", n, name, got, ids)
				}
				if got := at.s.Members(at.r, words); got != len(ids) {
					t.Fatalf("n=%d %s: Members = %d, want %d", n, name, got, len(ids))
				}
				mask := make([]uint64, words)
				at.s.Union(at.r, mask)
				var got []int32
				for v := int32(0); int(v) < n; v++ {
					if mask[v>>6]&(1<<(v&63)) != 0 {
						got = append(got, v)
					}
				}
				if !slices.Equal(got, ids) {
					t.Fatalf("n=%d %s: Union gave %v, want %v", n, name, got, ids)
				}
			}
		}
		if packed.Rows() != wantRows || packed.Lists() != len(sets)-wantRows {
			t.Errorf("n=%d: %d rows + %d lists, want %d + %d", n, packed.Rows(), packed.Lists(), wantRows, len(sets)-wantRows)
		}
		if got := packed.Bytes(); got != wantBytes+4*int64(len(sets)) {
			t.Errorf("n=%d: Bytes = %d, want %d of sets + 4 per reference", n, got, wantBytes)
		}
	}
}

// TestLocSetsZeroVertexGraph: over a graph with no vertices (a tombstoned
// slot's placeholder) a set of any size stays a list.
func TestLocSetsZeroVertexGraph(t *testing.T) {
	var s LocSets
	ids := []int32{0, 3, 200, 100000}
	r := s.AppendList(ids, Words(0))
	if r >= 0 {
		t.Fatal("a set over a zero-vertex graph was stored as a row")
	}
	if got := s.AppendIDs(nil, r, 0); !slices.Equal(got, ids) {
		t.Fatalf("expanded %v, want %v", got, ids)
	}
	empty := s.AppendList(nil, Words(0))
	if got := s.AppendIDs(nil, empty, 0); len(got) != 0 || s.Members(empty, 0) != 0 {
		t.Fatalf("the empty set expanded to %v", got)
	}
}

// TestFeaturesIndependentOfOccurrenceOrder: a feature's location set is stored
// by what it holds, not by how the path DFS met its occurrences. One extractor
// meets each occurrence many times over, so its scratch list spills into a
// row while the set is still small; the other meets each once, shuffled; the
// flattened Features are identical, whichever form the set takes.
func TestFeaturesIndependentOfOccurrenceOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := graph.MustNew("g", make([]graph.Label, 300), nil) // words = 5: rows from 10 members
	for _, members := range []int{2, 3, 9, 10, 11, 40, 300} {
		var occs [][]int32
		for v := 0; v+1 < members; v++ {
			occs = append(occs, []int32{int32(v), int32(v + 1)})
		}
		feed := func(occs [][]int32) *Features {
			e := new(extractor)
			if _, err := e.extract(context.Background(), g, 1, true); err != nil { // sets the scratch up; g has no paths
				t.Fatal(err)
			}
			e.plabels[0], e.plabels[1] = 0, 0
			slot := e.child(e.child(0, 1), 2) // the feature (0, 0)
			for _, path := range occs {
				e.count[slot]++
				e.locate(slot, path[:1], path[1:])
			}
			return e.features()
		}
		var repeated [][]int32
		for _, o := range occs {
			for i := 0; i < 12; i++ {
				repeated = append(repeated, o)
			}
		}
		a := feed(repeated)
		shuffled := slices.Clone(occs)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := feed(shuffled)
		a.counts, b.counts = nil, nil // the occurrence counts differ by construction
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%d members: Features differ between a spilled scratch row and a scratch list:\n%+v\n%+v", members, a, b)
		}
		if got := a.locRefs[0] >= 0; got != RowForm(members, a.words) {
			t.Errorf("%d members: stored as row=%v", members, got)
		}
		if got := a.Locations(0); len(got) != members || got[0] != 0 || got[members-1] != int32(members-1) {
			t.Errorf("%d members: Locations = %v", members, got)
		}
	}
}
