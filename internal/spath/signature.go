package spath

import (
	"math/bits"
	"slices"

	"github.com/psi-graph/psi/internal/graph"
)

// labelCount is one signature entry: count vertices carry label.
type labelCount struct {
	label graph.Label
	count int32
}

// signatures holds the distance-wise neighbourhood signature of every vertex
// of one graph — the stored graph's, built once, or a query's, built per
// query — flat: row(v, d) lists, sorted by label, how many vertices of each
// label lie within distance 1..d+1 of v (v itself excluded). Rows are
// cumulative because containment is: an embedding can only shrink distances,
// so what must hold between a query vertex and its image is "no more
// l-labelled vertices within distance d", per d. Storing the running sums
// makes that one merge of two rows per radius, with nothing to accumulate
// at query time. All rows share one slab; off[v*radius+d] is where row(v, d)
// starts and the next offset is where it ends.
type signatures struct {
	radius int
	off    []uint32
	rows   []labelCount
}

func (s *signatures) row(v, d int) []labelCount {
	i := v*s.radius + d
	return s.rows[s.off[i]:s.off[i+1]]
}

// buildSignatures computes g's signatures out to radius with
// graph.BFSBatches. Each level of a batch is walked in (label, vertex) order,
// so every source's labels at that distance come out ascending: a label's
// vertices are counted into one counter per source, and the counters a label
// touched are flushed as that source's next entry. The exact-distance
// entries of a batch are then merged, source by source and level by level,
// into the cumulative rows. Scratch is 64 counters and the batch's entries:
// nothing is sized by the label alphabet or by graph.MaxLabel.
func buildSignatures(g *graph.Graph, radius int) signatures {
	n := g.N()
	sig := signatures{radius: radius, off: make([]uint32, 1, n*radius+1)}
	labels := g.LabelValues()
	groups := make([][]int32, len(labels))
	for i, l := range labels {
		groups[i] = g.VerticesWithLabel(l)
	}
	var (
		count [64]int32
		exact [64][]labelCount // per source: its entries, level after level
		ends  = make([]int, 64*radius)
	)
	g.BFSBatches(radius, func(first, depth int, reached []uint64) {
		for i, l := range labels {
			var touched uint64
			for _, v := range groups[i] {
				r := reached[v]
				touched |= r
				for ; r != 0; r &= r - 1 {
					count[bits.TrailingZeros64(r)]++
				}
			}
			for ; touched != 0; touched &= touched - 1 {
				src := bits.TrailingZeros64(touched)
				exact[src] = append(exact[src], labelCount{l, count[src]})
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
				sig.rows = mergeRows(sig.rows, prev, start, exact[src][from:to])
				sig.off = append(sig.off, uint32(len(sig.rows)))
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

// mergeRows appends to rows the label-wise sum of rows[lo:hi] and add, both
// sorted by label, and returns the extended slice.
func mergeRows(rows []labelCount, lo, hi int, add []labelCount) []labelCount {
	for lo < hi && len(add) > 0 {
		a, b := rows[lo], add[0]
		switch {
		case a.label < b.label:
			rows = append(rows, a)
			lo++
		case a.label > b.label:
			rows = append(rows, b)
			add = add[1:]
		default:
			rows = append(rows, labelCount{a.label, a.count + b.count})
			lo++
			add = add[1:]
		}
	}
	rows = append(rows, rows[lo:hi]...)
	return append(rows, add...)
}

// rowContains reports whether every label of sub appears in super at least
// as often: one pass of two cursors over the two sorted rows.
func rowContains(super, sub []labelCount) bool {
	i := 0
	for _, s := range sub {
		for i < len(super) && super[i].label < s.label {
			i++
		}
		if i == len(super) || super[i].label != s.label || super[i].count < s.count {
			return false
		}
		i++
	}
	return true
}

// contains checks cumulative containment of query vertex u's signature in
// stored vertex v's: at every radius, u must not see more l-labelled vertices
// than v does, for every label l.
func (s *signatures) contains(v int, q *signatures, u int) bool {
	for d := 0; d < s.radius; d++ {
		if !rowContains(s.row(v, d), q.row(u, d)) {
			return false
		}
	}
	return true
}
