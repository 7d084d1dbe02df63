package ftv

import (
	"math"
	"math/bits"
	"slices"
)

// LocSets is a slab of location sets — the vertices of one graph that a path
// feature's occurrences touch — each held in the smaller of two forms and
// never translated between them: a set over a graph whose bitset rows are
// words = Words(n) long is such a row when it has at least 2·words members,
// and an ascending list of vertex IDs otherwise (RowForm). The form is a
// function of the set alone, so however a set was accumulated, and whether it
// was extracted or restored from a snapshot, it is stored the same way. Rows
// live back to back in one []uint64 and lists in one []int32, and a set is
// named by a 4-byte LocRef into them: a label-poor dataset, whose features
// each cover most of a graph, costs n/8 bytes a set instead of 4n, and a
// sparse many-label one, with about one feature per path, keeps its
// few-vertex lists without a slice header each.
//
// A list's last member is stored complemented (negative), which ends the list
// without a length.
type LocSets struct {
	rows  []uint64
	lists []int32
	// How many sets took each form; the empty set counts as a list.
	nRows, nLists int
}

// LocRef names one set of a LocSets: r >= 0 is the row starting at word r,
// emptyLocs is the empty set, any other r < 0 is the list starting at ^r.
type LocRef int32

// emptyLocs is ^MaxInt32, a list offset refs rules out.
const emptyLocs LocRef = math.MinInt32

// Words is the length of a bitset row over n vertices.
func Words(n int) int { return (n + 63) / 64 }

// RowForm reports whether a set of members vertices of a graph whose rows are
// words long is stored as a row: when the row is no larger than the list. A
// graph with no vertices (a tombstoned slot's placeholder in a restored
// snapshot) has no rows to hold anything.
func RowForm(members, words int) bool { return words > 0 && members >= 2*words }

// Size is the length of the two slabs, the arguments of the Reserve that makes
// room for a copy of every set.
func (s *LocSets) Size() (rowWords, listIDs int) { return len(s.rows), len(s.lists) }

// Reserve makes room for rowWords more words of rows and listIDs more list
// members, so that a build that knows its sizes ends with no spare capacity.
func (s *LocSets) Reserve(rowWords, listIDs int) {
	s.rows = slices.Grow(s.rows, rowWords)
	s.lists = slices.Grow(s.lists, listIDs)
}

// AppendRow stores the set held in row, a bitset over all of the graph's
// vertices, in the form RowForm chooses.
func (s *LocSets) AppendRow(row []uint64) LocRef {
	members := 0
	for _, w := range row {
		members += bits.OnesCount64(w)
	}
	if RowForm(members, len(row)) {
		s.rows = append(s.rows, row...)
		return s.rowRef(len(row))
	}
	at := len(s.lists)
	for i, w := range row {
		for ; w != 0; w &= w - 1 {
			s.lists = append(s.lists, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return s.listRef(at)
}

// AppendList stores the set of the ascending, distinct vertex IDs ids, over a
// graph whose rows are words long, in the form RowForm chooses.
func (s *LocSets) AppendList(ids []int32, words int) LocRef {
	if RowForm(len(ids), words) {
		s.rows = append(s.rows, make([]uint64, words)...)
		setBits(s.rows[len(s.rows)-words:], ids)
		return s.rowRef(words)
	}
	at := len(s.lists)
	s.lists = append(s.lists, ids...)
	return s.listRef(at)
}

// setBits adds the vertices ids to the bitset row.
func setBits(row []uint64, ids []int32) {
	for _, v := range ids {
		row[v>>6] |= 1 << (v & 63)
	}
}

// rowRef names the row just appended, words long.
func (s *LocSets) rowRef(words int) LocRef {
	s.nRows++
	s.checkSize()
	return LocRef(len(s.rows) - words)
}

// listRef names the list just appended at lists[at:], and ends it.
func (s *LocSets) listRef(at int) LocRef {
	s.nLists++
	if at == len(s.lists) {
		return emptyLocs
	}
	s.lists[len(s.lists)-1] ^= -1
	s.checkSize()
	return ^LocRef(at)
}

// checkSize keeps every offset into the slabs within a reference's four
// bytes: 16 GB of rows or 8 GB of lists in one index, past which the dataset
// is to be sharded.
func (s *LocSets) checkSize() {
	if len(s.rows) > math.MaxInt32 || len(s.lists) >= math.MaxInt32 {
		panic("ftv: location sets exceed the 2^31 entries a reference can address")
	}
}

// AppendAll copies every set of o onto the end of s and returns the offsets
// that turn a reference into o into one into s (LocRef.Shifted).
func (s *LocSets) AppendAll(o *LocSets) (rowBase, listBase int32) {
	rowBase, listBase = int32(len(s.rows)), int32(len(s.lists))
	s.rows = append(s.rows, o.rows...)
	s.lists = append(s.lists, o.lists...)
	s.nRows += o.nRows
	s.nLists += o.nLists
	s.checkSize()
	return rowBase, listBase
}

// Shifted is the reference to the same set after AppendAll returned these
// offsets.
func (r LocRef) Shifted(rowBase, listBase int32) LocRef {
	switch {
	case r >= 0:
		return r + LocRef(rowBase)
	case r == emptyLocs:
		return r
	default:
		return r - LocRef(listBase) // ^(off+base) == ^off - base
	}
}

// list returns the list r names, its last member still complemented; nil for
// the empty set.
func (s *LocSets) list(r LocRef) []int32 {
	if r == emptyLocs {
		return nil
	}
	end := int(^r)
	for s.lists[end] >= 0 {
		end++
	}
	return s.lists[^r : end+1]
}

// Union ORs the set into mask, a bitset over the vertices of the set's graph
// (so len(mask) is that graph's row length).
func (s *LocSets) Union(r LocRef, mask []uint64) {
	if r >= 0 {
		for i, w := range s.rows[r : int(r)+len(mask)] {
			mask[i] |= w
		}
		return
	}
	if l := s.list(r); l != nil {
		last := len(l) - 1
		setBits(mask, l[:last])
		v := ^l[last]
		mask[v>>6] |= 1 << (v & 63)
	}
}

// Members is the number of vertices in the set; words is its graph's row
// length.
func (s *LocSets) Members(r LocRef, words int) int {
	if r < 0 {
		return len(s.list(r))
	}
	members := 0
	for _, w := range s.rows[r : int(r)+words] {
		members += bits.OnesCount64(w)
	}
	return members
}

// AppendIDs appends the set's vertex IDs to dst in ascending order — the form
// the snapshot format writes; words is the set's graph's row length.
func (s *LocSets) AppendIDs(dst []int32, r LocRef, words int) []int32 {
	if r >= 0 {
		for i, w := range s.rows[r : int(r)+words] {
			for ; w != 0; w &= w - 1 {
				dst = append(dst, int32(i<<6+bits.TrailingZeros64(w)))
			}
		}
		return dst
	}
	if l := s.list(r); l != nil {
		dst = append(dst, l...)
		dst[len(dst)-1] ^= -1
	}
	return dst
}

// Rows and Lists report how many sets took each form.
func (s *LocSets) Rows() int  { return s.nRows }
func (s *LocSets) Lists() int { return s.nLists }

// Bytes is the memory the sets hold: the two slabs and the 4-byte reference
// each set's owner keeps.
func (s *LocSets) Bytes() int64 {
	return 8*int64(len(s.rows)) + 4*int64(len(s.lists)) + 4*int64(s.nRows+s.nLists)
}
