package ftv

import (
	"cmp"
	"slices"

	"github.com/psi-graph/psi/internal/graph"
)

// LabelTrie assigns dense slots to label sequences. Slot 0 is the empty
// sequence, and Child(p, l) is the slot of p's sequence extended by l,
// allocated on first use — so a consumer that meets sequences one label at a
// time pays one lookup per step, whatever the labels' width or the sequences'
// length: the path DFS one per run, a fold one per slot of the tries it reads
// (index.FoldPath). A slot's number is above its parent's, and a slot keeps
// its number for the trie's life. The lookup is an open-addressing table with
// linear probing over a power-of-two size and a multiplicative hash of the
// packed (parent slot, label) pair, where the runtime map's general hashing
// was most of a feature extraction's CPU profile; an extraction's trie over
// an alphabet of at most rowAlphabet labels looks a child up by index instead
// (rowChild). Not safe for concurrent use while it makes slots; once it makes
// no more, any number of readers may share it.
type LabelTrie struct {
	labelTable

	parent []int32       // per slot
	label  []graph.Label // per slot: the last label of its sequence
	depth  []int32       // per slot: the length of its sequence
}

// rowAlphabet is the largest alphabet whose tries find a child by index: a
// row of one cell per label for every slot that has children costs 4·|Σ|
// bytes a parent. Over a few labels, where the lookup is most of an
// extraction, the rows fill and are small (the benchmark's datasets at
// maxLen 4: 4 labels, 341 parents, 5 KB; 8 labels, 4 681 parents, 146 KB;
// 16 labels: at most 70 k parents, 4.5 MB). Over a wide alphabet a parent
// has a handful of children and a row is mostly empty, and at 32 labels a
// dense dataset's rows could reach a million parents, 140 MB.
const rowAlphabet = 16

// labelTable is a trie's lookup. Hashed: slots[i] == 0 marks an empty cell
// (slot 0 is nobody's child), keys[i] is the packed pair bound to slots[i];
// keys are never removed. Rowed (width > 0): every slot that has children
// owns a row of width cells in rows, its children by the rank of their label
// in alphabet, 0 for none, and rowOf[s] is 1 + the row number of slot s, 0
// until it has a child.
type labelTable struct {
	keys  []uint64
	slots []int32
	shift uint // 64 - log2(len(keys))

	alphabet    []graph.Label // the labels a rank names, ascending; nil on a trie keyed by label only
	width       int           // len(alphabet) when rowed, else 0
	rows, rowOf []int32
}

// NewLabelTrie returns a trie holding only the empty sequence.
func NewLabelTrie() *LabelTrie { return newLabelTrie(labelTable{}, 1) }

// newRankTrie returns a trie holding only the empty sequence whose children
// are found by the rank of their label in alphabet: rowed
// when alphabet has at most rowAlphabet labels, hashed otherwise.
func newRankTrie(alphabet []graph.Label) *LabelTrie {
	tab := labelTable{alphabet: alphabet}
	if len(alphabet) <= rowAlphabet {
		tab.width = len(alphabet)
	}
	return newLabelTrie(tab, 1)
}

// newLabelTrie returns a trie holding only the empty sequence, with room for
// slots slots, in tab — a sealed trie's table, as large as the fullest use so
// far made it, or a new one.
func newLabelTrie(tab labelTable, slots int) *LabelTrie {
	switch {
	case tab.width > 0:
		tab.rows, tab.rowOf = tab.rows[:0], append(slices.Grow(tab.rowOf[:0], slots), 0)
	case tab.keys == nil:
		const bits = 8
		tab.keys, tab.slots, tab.shift = make([]uint64, 1<<bits), make([]int32, 1<<bits), 64-bits
	default:
		clear(tab.slots)
	}
	return &LabelTrie{
		labelTable: tab,
		parent:     append(make([]int32, 0, slots), -1),
		label:      append(make([]graph.Label, 0, slots), 0),
		depth:      append(make([]int32, 0, slots), 0),
	}
}

// seal ends t's making of slots: it keeps every one, which Len, Parent,
// Label, Depth, AppendLabels and Walk still read, and hands its table to the
// caller, which may give it to the next trie (newLabelTrie). Child panics on
// a sealed trie.
func (t *LabelTrie) seal() labelTable {
	tab := t.labelTable
	t.labelTable = labelTable{}
	return tab
}

// Len is the number of slots, the empty sequence's included.
func (t *LabelTrie) Len() int { return len(t.parent) }

// Depth returns the number of labels in slot s's sequence.
func (t *LabelTrie) Depth(s int32) int { return int(t.depth[s]) }

// Parent returns the slot of s's sequence without its last label; -1 for the
// empty sequence.
func (t *LabelTrie) Parent(s int32) int32 { return t.parent[s] }

// Label returns the last label of slot s's sequence.
func (t *LabelTrie) Label(s int32) graph.Label { return t.label[s] }

// AppendLabels appends slot s's sequence to dst.
func (t *LabelTrie) AppendLabels(dst []graph.Label, s int32) []graph.Label {
	n := len(dst)
	dst = slices.Grow(dst, int(t.depth[s]))[:n+int(t.depth[s])]
	for i := len(dst) - 1; s > 0; i, s = i-1, t.parent[s] {
		dst[i] = t.label[s]
	}
	return dst
}

const labelTrieHash = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// Child returns the slot of parent's sequence extended by l; on a trie made
// by newRankTrie, l is the label's rank, and a rowed one finds its children
// through rowChild only.
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
	if t.alphabet != nil {
		l = t.alphabet[l]
	}
	t.parent = appendDoubling(t.parent, parent)
	t.label = appendDoubling(t.label, l)
	t.depth = appendDoubling(t.depth, t.depth[parent]+1)
	return s
}

// rowChild is Child on a rowed trie.
func (t *LabelTrie) rowChild(parent int32, rank graph.Label) int32 {
	r := int(t.rowOf[parent])
	if r == 0 {
		at := len(t.rows)
		t.rows = slices.Grow(t.rows, t.width)[:at+t.width]
		clear(t.rows[at:]) // capacity a sealed trie left holds its rows
		r = at/t.width + 1
		t.rowOf[parent] = int32(r)
	}
	cell := &t.rows[(r-1)*t.width+int(rank)]
	if *cell == 0 {
		*cell = int32(len(t.parent))
		t.parent = appendDoubling(t.parent, parent)
		t.label = appendDoubling(t.label, t.alphabet[rank])
		t.depth = appendDoubling(t.depth, t.depth[parent]+1)
		t.rowOf = appendDoubling(t.rowOf, 0)
	}
	return *cell
}

// appendDoubling is append with the capacity doubled whenever it runs out:
// growing a slice to n elements then allocates about 2n in all, where
// append's growth of a quarter at large sizes allocates about 5n.
func appendDoubling[S ~[]E, E any](s S, v E) S {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s))
	}
	return append(s, v)
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
	labels := make([]graph.Label, 0, 8)
	t.preorder(make([]int32, t.walkScratch()), func(s int32) {
		labels = append(labels[:t.depth[s]-1], t.label[s])
		visit(s, labels)
	})
}

// walkScratch is the length of the scratch preorder needs.
func (t *LabelTrie) walkScratch() int {
	deepest := int32(0)
	for _, d := range t.depth {
		deepest = max(deepest, d)
	}
	return 2*t.Len() + 1 + int(deepest)
}

// preorder is Walk without the labels, on scratch of walkScratch int32s.
func (t *LabelTrie) preorder(scratch []int32, visit func(s int32)) {
	n := t.Len()
	// Group the slots by parent with a counting sort: kids[first[p]:first[p+1]]
	// are p's children. Counted two places up, a group's start is one place up
	// after the prefix sum, and placing its slots moves it to the group's end,
	// the next group's start. A parent's slot is always below its children's.
	first, kids := scratch[:n+1], scratch[n+1:2*n]
	clear(first)
	for s := 1; s < n; s++ {
		first[t.parent[s]+2]++
	}
	for i := 2; i <= n; i++ {
		first[i] += first[i-1]
	}
	for s := 1; s < n; s++ {
		p := t.parent[s] + 1
		kids[first[p]] = int32(s)
		first[p]++
	}
	// Then order each group by label; a group has at most one entry per
	// distinct label.
	for p := 0; p < n; p++ {
		if group := kids[first[p]:first[p+1]]; len(group) > 1 {
			slices.SortFunc(group, func(a, b int32) int { return cmp.Compare(t.label[a], t.label[b]) })
		}
	}
	// The walk keeps, per level, its cursor in the group it is going through:
	// the root's children at level 0, and at level d the children of the slot
	// the level above last visited.
	stack := append(scratch[2*n:2*n], first[0])
	for len(stack) > 0 {
		d := len(stack) - 1
		end := first[1]
		if d > 0 {
			end = first[kids[stack[d-1]-1]+1]
		}
		if stack[d] == end {
			stack = stack[:d]
			continue
		}
		c := kids[stack[d]]
		stack[d]++
		visit(c)
		stack = append(stack, first[c])
	}
}
