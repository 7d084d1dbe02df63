package ftv

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"
)

// FuzzLocSets builds location sets of fuzzed membership over a graph of 0 to
// 299 vertices, each set both ways — from a bitset row (AppendRow) and from
// ascending IDs (AppendList) — so sets land on either side of RowForm's
// threshold and of a word boundary, then copies them behind other sets
// (AppendAll + Shifted). Members, AppendIDs and Union must agree with a
// sorted []int32 oracle in both slabs, the two ways of building must store
// the same bytes, and a Union over several sets must be their union. The
// sets are what Grapes verifies through and what a snapshot writes out, so a
// wrong member here is a wrong answer or a corrupt file.
func FuzzLocSets(f *testing.F) {
	f.Add(uint16(64), []byte{0, 3, 1, 0, 9, 0, 63, 0, 1, 2, 0, 2, 1})
	f.Add(uint16(65), []byte{3, 1, 64, 0, 4, 0, 0, 5, 2, 5, 0})
	f.Add(uint16(130), []byte{5, 1, 0, 4, 4, 3, 2, 7, 2, 0, 1, 1, 0, 0, 129, 0})
	f.Add(uint16(1), []byte{1, 1, 0, 0, 0, 0})
	f.Add(uint16(0), []byte{1, 2, 3, 4, 0, 5})
	f.Fuzz(func(t *testing.T, size uint16, data []byte) {
		n := int(size % 300)
		words := Words(n)
		sets, fromRow := fuzzSets(data, n)
		var own, other LocSets // each set built the way the input says, and the other way
		refs := make([]LocRef, len(sets))
		for i, ids := range sets {
			row := make([]uint64, words)
			setBits(row, ids)
			var otherRef LocRef
			if fromRow[i] {
				refs[i], otherRef = own.AppendRow(row), other.AppendList(ids, words)
			} else {
				refs[i], otherRef = own.AppendList(ids, words), other.AppendRow(row)
			}
			if refs[i] != otherRef {
				t.Fatalf("set %d %v: referenced %d built one way, %d the other", i, ids, refs[i], otherRef)
			}
		}
		if !reflect.DeepEqual(own, other) {
			t.Fatal("sets built from rows and from IDs are stored differently")
		}
		if got := own.Rows() + own.Lists(); got != len(sets) {
			t.Fatalf("%d rows + lists for %d sets", got, len(sets))
		}

		// A copy behind other sets, as a shard's sets are laid out behind
		// another's.
		var moved LocSets
		before := make([]LocRef, min(2, len(sets)))
		for i := range before {
			before[i] = moved.AppendList(sets[len(sets)-1-i], words)
		}
		rowBase, listBase := moved.AppendAll(&own)

		check := func(where string, s *LocSets, r LocRef, ids []int32) {
			t.Helper()
			if (r >= 0) != RowForm(len(ids), words) {
				t.Fatalf("%s: a set of %d over %d words stored as row=%v", where, len(ids), words, r >= 0)
			}
			if got := s.Members(r, words); got != len(ids) {
				t.Fatalf("%s: Members = %d, want %d", where, got, len(ids))
			}
			if got := s.AppendIDs([]int32{-1}, r, words); got[0] != -1 || !slices.Equal(got[1:], ids) {
				t.Fatalf("%s: AppendIDs onto [-1] = %v, want [-1] then %v", where, got, ids)
			}
			mask := make([]uint64, words)
			s.Union(r, mask)
			if got := bitsOf(mask); !slices.Equal(got, ids) {
				t.Fatalf("%s: Union = %v, want %v", where, got, ids)
			}
		}
		union := make([]uint64, words)
		var all []int32
		for i, ids := range sets {
			check("own slab", &own, refs[i], ids)
			check("moved", &moved, refs[i].Shifted(rowBase, listBase), ids)
			own.Union(refs[i], union)
			all = append(all, ids...)
		}
		for i, r := range before {
			check("ahead of the moved sets", &moved, r, sets[len(sets)-1-i])
		}
		slices.Sort(all)
		if got, want := bitsOf(union), slices.Compact(all); !slices.Equal(got, want) {
			t.Fatalf("the Union of every set = %v, want %v", got, want)
		}
		if got := moved.Rows() + moved.Lists(); got != len(sets)+len(before) {
			t.Fatalf("moved: %d rows + lists for %d sets", got, len(sets)+len(before))
		}
	})
}

// fuzzSets decodes data into at most 32 ascending sets of the vertices
// 0..n-1, and for each whether to build it from a row. Per set, a mode byte:
// bit 0 picks the building form, bits 1-2 the shape — explicit members (a
// count byte, then two bytes a member), every vertex but such members, or
// every stride-th vertex from an offset — so sparse, dense and
// threshold-straddling sets all arise.
func fuzzSets(data []byte, n int) (sets [][]int32, fromRow []bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for len(data) > 0 && len(sets) < 32 {
		mode := next()
		in := make([]bool, n)
		switch shape := mode >> 1 & 3; shape {
		case 0, 1:
			for c := next(); c > 0; c-- {
				if v := next() | next()<<8; n > 0 {
					in[v%n] = true
				}
			}
			if shape == 1 {
				for v := range in {
					in[v] = !in[v]
				}
			}
		default:
			stride, from := next()%8+1, next()
			for v := from; v < n; v += stride {
				in[v] = true
			}
		}
		var ids []int32
		for v, ok := range in {
			if ok {
				ids = append(ids, int32(v))
			}
		}
		sets, fromRow = append(sets, ids), append(fromRow, mode&1 == 1)
	}
	return sets, fromRow
}

// bitsOf lists the set bits of a bitset row, ascending — past the graph's
// last vertex included, where none may be.
func bitsOf(row []uint64) []int32 {
	var out []int32
	for i, w := range row {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}
