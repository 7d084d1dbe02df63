package match

import (
	"math/rand"
	"slices"
	"testing"
)

// TestVertexSet checks the bitset against a sorted slice of its members over
// universes that straddle the word size: membership, size, ascending
// iteration, removal, and that sets carved from one slab do not overlap.
func TestVertexSet(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		sets := NewVertexSets(3, n)
		want := make([][]int32, len(sets))
		for k := range sets {
			for v := int32(0); int(v) < n; v++ {
				if r.Intn(3) == 0 {
					sets[k].Add(v)
					sets[k].Add(v) // adding twice is adding once
					want[k] = append(want[k], v)
				}
			}
		}
		for k, s := range sets {
			if s.Len() != len(want[k]) {
				t.Errorf("n=%d set %d: Len = %d, want %d", n, k, s.Len(), len(want[k]))
			}
			var got []int32
			for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
				got = append(got, v)
			}
			if !slices.Equal(got, want[k]) {
				t.Errorf("n=%d set %d: iterates %v, want %v", n, k, got, want[k])
			}
			for v := int32(0); int(v) < n; v++ {
				if _, in := slices.BinarySearch(want[k], v); s.Has(v) != in {
					t.Errorf("n=%d set %d: Has(%d) = %v", n, k, v, s.Has(v))
				}
			}
			for _, v := range want[k] {
				s.Remove(v)
			}
			if s.Len() != 0 || s.Next(0) != -1 {
				t.Errorf("n=%d set %d: not empty after removing every member", n, k)
			}
		}
	}
}
