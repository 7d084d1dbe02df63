package ftv

import (
	"cmp"
	"slices"

	"github.com/psi-graph/psi/internal/graph"
)

// LabelTrie assigns dense slots to label sequences. Slot 0 is the empty
// sequence, and Child(p, l) is the slot of p's sequence extended by l,
// allocated on first use — so a consumer that meets sequences one label at a
// time (the path DFS) pays one probe per step, and one that holds whole
// sequences pays one per label, whatever the labels' width or the
// sequences' length. The trie lives in a single open-addressing table with
// linear probing over a power-of-two size and a multiplicative hash of the
// packed (parent slot, label) pair, where the runtime map's general hashing
// was most of a feature extraction's CPU profile. Not safe for concurrent
// use.
type LabelTrie struct {
	// The table: slots[i] == 0 marks an empty cell (slot 0 is nobody's
	// child), keys[i] is the packed pair bound to slots[i]. Keys are never
	// removed.
	keys  []uint64
	slots []int32
	shift uint // 64 - log2(len(keys))

	parent []int32       // per slot
	label  []graph.Label // per slot: the last label of its sequence
	depth  []int32       // per slot: the length of its sequence

	first, fill, kids []int32 // Walk's grouping arrays, kept for the next Walk
}

// NewLabelTrie returns a trie holding only the empty sequence.
func NewLabelTrie() *LabelTrie {
	t := new(LabelTrie)
	t.reset()
	return t
}

// reset empties the trie down to the empty sequence and keeps what it has
// allocated: the table stays as large as the fullest use so far made it, so
// an extractor going from graph to graph grows it once, not once per graph.
func (t *LabelTrie) reset() {
	if t.keys == nil {
		const bits = 8
		t.keys, t.slots, t.shift = make([]uint64, 1<<bits), make([]int32, 1<<bits), 64-bits
	}
	clear(t.slots)
	t.parent, t.label, t.depth = append(t.parent[:0], -1), append(t.label[:0], 0), append(t.depth[:0], 0)
}

// Len is the number of slots, the empty sequence's included.
func (t *LabelTrie) Len() int { return len(t.parent) }

// Depth returns the number of labels in slot s's sequence.
func (t *LabelTrie) Depth(s int32) int { return int(t.depth[s]) }

const labelTrieHash = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// Child returns the slot of parent's sequence extended by l.
func (t *LabelTrie) Child(parent int32, l graph.Label) int32 {
	key := uint64(parent)<<32 | uint64(uint32(l))
	mask := len(t.keys) - 1
	i := int(key * labelTrieHash >> t.shift)
	for t.slots[i] != 0 {
		if t.keys[i] == key {
			return t.slots[i]
		}
		i = (i + 1) & mask
	}
	if 2*len(t.parent) > len(t.keys) {
		t.grow()
		return t.Child(parent, l)
	}
	s := int32(len(t.parent))
	t.keys[i], t.slots[i] = key, s
	t.parent = append(t.parent, parent)
	t.label = append(t.label, l)
	t.depth = append(t.depth, t.depth[parent]+1)
	return s
}

// Slot returns the slot of a whole label sequence.
func (t *LabelTrie) Slot(labels []graph.Label) int32 {
	s := int32(0)
	for _, l := range labels {
		s = t.Child(s, l)
	}
	return s
}

func (t *LabelTrie) grow() {
	oldKeys, oldSlots := t.keys, t.slots
	t.shift--
	t.keys = make([]uint64, 2*len(oldKeys))
	t.slots = make([]int32, 2*len(oldSlots))
	mask := len(t.keys) - 1
	for j, s := range oldSlots {
		if s == 0 {
			continue
		}
		i := int(oldKeys[j] * labelTrieHash >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.slots[i] = oldKeys[j], s
	}
}

// Walk visits every slot but the empty sequence's in canonical order —
// label sequences ascending lexicographically, a shorter prefix first: a
// preorder walk with every slot's children ascending by label. labels is
// reused across calls.
func (t *LabelTrie) Walk(visit func(s int32, labels []graph.Label)) {
	n := t.Len()
	// Group the slots by parent with a counting sort (a parent's slot
	// number is always below its children's), then order each group by
	// label; a group has at most one entry per distinct label.
	first, kids := resized(t.first, n+1), resized(t.kids, n-1)
	clear(first)
	for s := 1; s < n; s++ {
		first[t.parent[s]+1]++
	}
	for p := 0; p < n; p++ {
		first[p+1] += first[p]
	}
	fill := append(t.fill[:0], first[:n]...)
	t.first, t.fill, t.kids = first, fill, kids
	for s := 1; s < n; s++ {
		p := t.parent[s]
		kids[fill[p]] = int32(s)
		fill[p]++
	}
	for p := 0; p < n; p++ {
		slices.SortFunc(kids[first[p]:first[p+1]], func(a, b int32) int {
			return cmp.Compare(t.label[a], t.label[b])
		})
	}
	var labels []graph.Label
	var walk func(s int32)
	walk = func(s int32) {
		for _, c := range kids[first[s]:first[s+1]] {
			labels = append(labels, t.label[c])
			visit(c, labels)
			walk(c)
			labels = labels[:len(labels)-1]
		}
	}
	walk(0)
}
