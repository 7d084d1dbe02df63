package match

import "math/bits"

// VertexSet is a set of stored-graph vertices held as one bit per vertex of
// the graph: the per-query-vertex candidate sets of the filtering matchers.
// Membership is a bit test in the search's inner loop, and iteration is in
// ascending vertex order — the order matchers enumerate candidates in — with
// no sort.
type VertexSet []uint64

// NewVertexSets returns k empty sets over the vertices 0..n-1, carved from
// one allocation.
func NewVertexSets(k, n int) []VertexSet {
	words := (n + 63) / 64
	slab := make([]uint64, k*words)
	sets := make([]VertexSet, k)
	for i := range sets {
		sets[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	return sets
}

// Add puts v in the set.
func (s VertexSet) Add(v int32) { s[v>>6] |= 1 << (v & 63) }

// Remove takes v out of the set.
func (s VertexSet) Remove(v int32) { s[v>>6] &^= 1 << (v & 63) }

// Has reports whether v is in the set.
func (s VertexSet) Has(v int32) bool { return s[v>>6]&(1<<(v&63)) != 0 }

// Len returns the number of vertices in the set.
func (s VertexSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member that is >= v, or -1 if there is none.
// for v := s.Next(0); v >= 0; v = s.Next(v + 1) visits the set in ascending
// order.
func (s VertexSet) Next(v int32) int32 {
	i := int(v >> 6)
	if i >= len(s) {
		return -1
	}
	if w := s[i] >> (v & 63); w != 0 {
		return v + int32(bits.TrailingZeros64(w))
	}
	for i++; i < len(s); i++ {
		if s[i] != 0 {
			return int32(i<<6 + bits.TrailingZeros64(s[i]))
		}
	}
	return -1
}
