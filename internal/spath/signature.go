package spath

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/psi-graph/psi/internal/graph"
)

// maxWidth is the widest rank space a 16-bit rank addresses.
const maxWidth = 1 << 16

// clampRank is a label rank as rows hold it: the ranks from the last 16-bit
// one up share that one.
func clampRank(rank int) uint16 { return uint16(min(rank, maxWidth-1)) }

// clampCount is a count as rows hold it: saturated at the largest byte.
func clampCount(count int) byte { return byte(min(count, math.MaxUint8)) }

// signatures holds the distance-wise neighbourhood signature of every vertex
// of one graph — the stored graph's, built once, or a query's, built per
// query — flat: row(v, d) says how many vertices of each label lie within
// distance 1..d+1 of v (v itself excluded). Rows are cumulative because
// containment is: an embedding can only shrink distances, so what must hold
// between a query vertex and its image is "no more l-labelled vertices within
// distance d", per d. Storing the running sums leaves nothing to accumulate
// at query time.
//
// A label is its rank in the stored graph's alphabet (graph.LabelRank), in the
// stored graph's rows and in a query's alike, and width is that alphabet's
// size. Rows are bytes. A row with k labels is dense — width one-byte counts
// indexed by rank — when 3k ≥ width, and sparse — k triples (rank high byte,
// rank low byte, count), ranks ascending, counts positive — otherwise:
// whichever is shorter, a function of the row alone. A sparse row is strictly
// shorter than width, so a row's form is its length. All rows share one slab;
// off[v*radius+d] is where row(v, d) starts and the next offset is where it
// ends.
//
// Ranks are 16 bits and counts 8, which is sound by construction. Counts
// saturate at 255 in stored and query rows alike (clampCount), and saturation
// is monotone, so stored ≥ query survives it. Ranks from 65 535 up share the
// last rank and their counts add (clampRank): containment label by label
// implies containment of the sums. Ranks are exact while the stored graph has
// at most 65 536 distinct labels, counts while no query vertex sees more than
// 255 vertices of one label within the radius — always, for a query of fewer
// than 256 vertices; beyond, the filter keeps a superset of the exact
// candidates.
type signatures struct {
	radius int
	width  int
	off    []uint32
	rows   []byte
}

func (s *signatures) row(v, d int) []byte {
	i := v*s.radius + d
	return s.rows[s.off[i]:s.off[i+1]]
}

// buildSignatures computes g's signatures out to radius in the rank space of
// space: g itself for the stored graph, the stored graph for a query. With a
// label in g that space lacks it builds nothing and reports false.
func buildSignatures(g *graph.Graph, radius int, space *graph.Graph) (signatures, bool) {
	ranks := make([]uint16, g.DistinctLabels())
	for i, l := range g.LabelValues() {
		rank, ok := space.LabelRank(l)
		if !ok {
			return signatures{}, false
		}
		ranks[i] = clampRank(rank)
	}
	return buildRows(g, radius, ranks, min(space.DistinctLabels(), maxWidth)), true
}

// buildRows computes the signatures with graph.BFSBatches; ranks[i] is the
// rank of g's i-th distinct label, ascending with the labels. Each level of a
// batch is walked in (label, vertex) order, so every source's ranks at that
// distance come out ascending: a rank's vertices are counted into one counter
// per source, and the counters a rank touched are flushed as that source's
// next triple. The exact-distance triples of a batch are then summed, source
// by source and level by level, into the cumulative rows, each written in its
// final form. Scratch is 64 counters and the batch's triples: nothing is
// sized by graph.MaxLabel.
func buildRows(g *graph.Graph, radius int, ranks []uint16, width int) signatures {
	n := g.N()
	sig := signatures{radius: radius, width: width, off: make([]uint32, 1, n*radius+1)}
	groups := make([][]int32, len(ranks))
	for i, l := range g.LabelValues() {
		groups[i] = g.VerticesWithLabel(l)
	}
	var (
		count [64]int32
		exact [64][]byte // per source: its sparse triples, level after level
		ends  = make([]int, 64*radius)
	)
	g.BFSBatches(radius, func(first, depth int, reached []uint64) {
		var touched uint64
		for i, group := range groups {
			for _, v := range group {
				r := reached[v]
				touched |= r
				for ; r != 0; r &= r - 1 {
					count[bits.TrailingZeros64(r)]++
				}
			}
			if i+1 < len(ranks) && ranks[i+1] == ranks[i] {
				continue // the next label shares this rank: their counts add
			}
			for ; touched != 0; touched &= touched - 1 {
				src := bits.TrailingZeros64(touched)
				exact[src] = append(exact[src], byte(ranks[i]>>8), byte(ranks[i]), clampCount(int(count[src])))
				count[src] = 0
			}
		}
		for src := range exact {
			ends[src*radius+depth-1] = len(exact[src])
		}
		if depth < radius {
			return
		}
		// The batch is complete: emit its sources' rows in vertex order.
		for src := 0; src < 64 && first+src < n; src++ {
			prev, from := len(sig.rows), 0
			for _, to := range ends[src*radius : (src+1)*radius] {
				start := len(sig.rows)
				sig.rows = appendSum(sig.rows, prev, start, exact[src][from:to], width)
				sig.off = append(sig.off, slabOffset(len(sig.rows), n, width))
				prev, from = start, to
			}
			exact[src] = exact[src][:0]
		}
		// Size the slab for the batches to come by the ones so far, so that
		// appending seldom regrows (and copies) it.
		if done := first + 64; done < n {
			sig.rows = slices.Grow(sig.rows, len(sig.rows)/done*(n-done))
		}
	})
	return sig
}

// slabOffset is a slab length as a row offset; a slab longer than an offset
// can address panics instead of wrapping.
func slabOffset(entries, n, width int) uint32 {
	if uint64(entries) > math.MaxUint32 {
		panic(fmt.Sprintf("spath: the signatures of a graph of %d vertices over %d labels exceed the 2^32 bytes an offset can address", n, width))
	}
	return uint32(entries)
}

// rankAt is the rank of the triple at row[i:].
func rankAt(row []byte, i int) int { return int(row[i])<<8 | int(row[i+1]) }

// appendSum appends to rows the rank-wise sum of the row rows[lo:hi], of
// either form, and the sparse row add, in the form the sum's own label count
// asks for, and returns the extended slice.
func appendSum(rows []byte, lo, hi int, add []byte, width int) []byte {
	start := len(rows)
	if hi-lo == width { // dense, and a sum has no fewer labels: dense again
		rows = append(rows, rows[lo:hi]...)
		scatter(rows[start:], add)
		return rows
	}
	for lo < hi && len(add) > 0 {
		switch a, b := rankAt(rows, lo), rankAt(add, 0); {
		case a < b:
			rows = append(rows, rows[lo:lo+3]...)
			lo += 3
		case a > b:
			rows = append(rows, add[:3]...)
			add = add[3:]
		default:
			rows = append(rows, rows[lo], rows[lo+1], clampCount(int(rows[lo+2])+int(add[2])))
			lo += 3
			add = add[3:]
		}
	}
	rows = append(rows, rows[lo:hi]...)
	rows = append(rows, add...)
	if len(rows)-start < width {
		return rows
	}
	// 3k ≥ width: lay the dense form out behind the triples, then move it
	// down over them (it is no longer than they are).
	end := len(rows)
	rows = append(rows, make([]byte, width)...)
	scatter(rows[end:], rows[start:end])
	copy(rows[start:], rows[end:])
	return rows[:start+width]
}

// scatter adds the sparse row add into the dense row.
func scatter(dense, add []byte) {
	for i := 0; i < len(add); i += 3 {
		r := rankAt(add, i)
		dense[r] = clampCount(int(dense[r]) + int(add[i+2]))
	}
}

// rowContains reports whether the row super has every label of the row sub
// at least as often. A dense super answers each label of sub by index; two
// sparse rows are one pass of two cursors.
func rowContains(super, sub []byte, width int) bool {
	if len(sub) > len(super) {
		return false // sub has more labels than super: one of them is missing
	}
	if len(super) < width {
		i := 0
		for j := 0; j < len(sub); j += 3 {
			r := rankAt(sub, j)
			for i < len(super) && rankAt(super, i) < r {
				i += 3
			}
			if i == len(super) || rankAt(super, i) != r || super[i+2] < sub[j+2] {
				return false
			}
			i += 3
		}
		return true
	}
	if len(sub) < width {
		for j := 0; j < len(sub); j += 3 {
			if super[rankAt(sub, j)] < sub[j+2] {
				return false
			}
		}
		return true
	}
	for rank, count := range sub {
		if super[rank] < count {
			return false
		}
	}
	return true
}

// contains checks cumulative containment of query vertex u's signature in
// stored vertex v's: at every radius, u must not see more l-labelled vertices
// than v does, for every label l. q is in s's rank space.
func (s *signatures) contains(v int, q *signatures, u int) bool {
	for d := 0; d < s.radius; d++ {
		if !rowContains(s.row(v, d), q.row(u, d), s.width) {
			return false
		}
	}
	return true
}
