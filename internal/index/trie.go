package index

// Trie is the label-path trie Grapes and GGSX keep their features in: the
// path from the root to a node spells a label sequence, and a node whose
// sequence is an indexed feature carries that feature's posting list —
// ascending by graph ID, like every posting list — and, for Grapes, the
// parallel list of location sets. A node's children are kept ascending by
// label, so a preorder walk visits the features in the snapshot format's
// canonical order without sorting anything. (GGSX's suffix trie is this same
// structure: every suffix of an enumerated path is itself an enumerated
// path, so inserting all path features yields exact counts at inner nodes.)
// Immutable once built.

import (
	"slices"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// Trie is built by FoldTrie or RestoreTrie.
type Trie struct {
	nodes    []trieNode // nodes[0] is the root
	features int        // nodes carrying postings
}

type trieNode struct {
	labels []graph.Label // the children's labels, ascending
	kids   []int32       // parallel to labels: positions in Trie.nodes
	posts  Postings
	locs   [][]int32 // parallel to posts: sorted unique vertex IDs; nil without locations
}

// node returns the position of the node spelling labels, creating the nodes
// on the way down as needed.
func (t *Trie) node(labels []graph.Label) int32 {
	at := int32(0)
	for _, l := range labels {
		n := &t.nodes[at]
		i, ok := slices.BinarySearch(n.labels, l)
		if !ok {
			n.labels = slices.Insert(n.labels, i, l)
			n.kids = slices.Insert(n.kids, i, int32(len(t.nodes)))
			t.nodes = append(t.nodes, trieNode{})
			n = &t.nodes[at]
		}
		at = n.kids[i]
	}
	return at
}

// FoldTrie builds the trie over graphs 0..len(feats)-1 from their extracted
// features. The first pass finds or creates every feature's node and sizes
// its posting list; the lists are then carved from one slab and filled graph
// by graph, which leaves them ascending with no sort and no spare capacity.
// withLocations keeps the features' location lists beside the postings,
// aliasing the extraction's storage.
func FoldTrie(feats []*ftv.Features, withLocations bool) *Trie {
	t := &Trie{nodes: make([]trieNode, 1)}
	var (
		nodeOf []int32 // per (graph, feature) pair, in fold order
		lens   []int32 // per node: graphs its sequence occurs in
	)
	for _, f := range feats {
		for i := 0; i < f.Len(); i++ {
			at := t.node(f.Labels(i))
			for len(lens) < len(t.nodes) {
				lens = append(lens, 0)
			}
			lens[at]++
			nodeOf = append(nodeOf, at)
		}
	}
	postSlab := make([]Posting, len(nodeOf))
	var locSlab [][]int32
	if withLocations {
		locSlab = make([][]int32, len(nodeOf))
	}
	next := 0
	for g, f := range feats {
		for i := 0; i < f.Len(); i++ {
			n := &t.nodes[nodeOf[next]]
			if n.posts == nil {
				size := lens[nodeOf[next]]
				n.posts, postSlab = postSlab[:0:size], postSlab[size:]
				if withLocations {
					n.locs, locSlab = locSlab[:0:size], locSlab[size:]
				}
				t.features++
			}
			next++
			n.posts = append(n.posts, Posting{Graph: int32(g), Count: f.Count(i)})
			if withLocations {
				n.locs = append(n.locs, f.Locations(i))
			}
		}
	}
	return t
}

// RestoreTrie rebuilds a trie from exported features (whose order Restore
// has checked): each feature was exported from exactly one node, so
// re-inserting every (labels, postings) pair reconstructs the trie node for
// node, with no path enumeration.
func RestoreTrie(feats []ExportedFeature, withLocations bool) *Trie {
	t := &Trie{nodes: make([]trieNode, 1), features: len(feats)}
	total := 0
	for _, f := range feats {
		total += len(f.Postings)
	}
	postSlab := make([]Posting, 0, total)
	var locSlab [][]int32
	if withLocations {
		locSlab = make([][]int32, 0, total)
	}
	for _, f := range feats {
		n := &t.nodes[t.node(f.Labels)]
		from := len(postSlab)
		for _, p := range f.Postings {
			postSlab = append(postSlab, Posting{Graph: int32(p.GraphID), Count: p.Count})
			if withLocations {
				locSlab = append(locSlab, p.Locations)
			}
		}
		n.posts = postSlab[from:len(postSlab):len(postSlab)]
		if withLocations {
			n.locs = locSlab[from:len(locSlab):len(locSlab)]
		}
	}
	return t
}

// Lookup returns the posting list of an exact label sequence and, for a trie
// with locations, the parallel location sets; posts is nil when the sequence
// is not an indexed feature.
func (t *Trie) Lookup(labels []graph.Label) (posts Postings, locs [][]int32) {
	n := &t.nodes[0]
	for _, l := range labels {
		i, ok := slices.BinarySearch(n.labels, l)
		if !ok {
			return nil, nil
		}
		n = &t.nodes[n.kids[i]]
	}
	return n.posts, n.locs
}

// Nodes reports the number of trie nodes, the root included.
func (t *Trie) Nodes() int { return len(t.nodes) }

// Features reports the number of distinct indexed label sequences.
func (t *Trie) Features() int { return t.features }

// ExportFeatures visits every feature in canonical order — the
// FeatureExporter walk shared by the trie-backed kinds.
func (t *Trie) ExportFeatures(visit func(labels []graph.Label, postings []FeaturePosting) error) error {
	var labels []graph.Label
	var walk func(n *trieNode) error
	walk = func(n *trieNode) error {
		if len(n.posts) > 0 {
			ps := make([]FeaturePosting, len(n.posts))
			for i, e := range n.posts {
				ps[i] = FeaturePosting{GraphID: int(e.Graph), Count: e.Count}
				if n.locs != nil {
					ps[i].Locations = n.locs[i]
				}
			}
			if err := visit(labels, ps); err != nil {
				return err
			}
		}
		for i, kid := range n.kids {
			labels = append(labels, n.labels[i])
			if err := walk(&t.nodes[kid]); err != nil {
				return err
			}
			labels = labels[:len(labels)-1]
		}
		return nil
	}
	return walk(&t.nodes[0])
}
