package index

// Trie is the label-path trie Grapes and GGSX keep their features in: the
// path from the root to a node spells a label sequence, and a node whose
// sequence is an indexed feature — an oriented spelling (ftv.Oriented); a
// node whose sequence is only the prefix of one carries nothing — has that
// feature's packed posting list and, for Grapes, the parallel list of
// references to the postings' location sets, which the trie holds in one
// ftv.LocSets. A node's children are kept ascending by label, so a preorder
// walk visits the features in the snapshot format's canonical order without
// sorting anything. (GGSX's suffix trie is this same structure: every suffix
// of an enumerated path is itself an enumerated path, so inserting all path
// features yields exact counts at the nodes that carry any.) Immutable once
// built.

import (
	"slices"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// Trie is built by FoldTrie or RestoreTrie.
type Trie struct {
	nodes        []trieNode // nodes[0] is the root
	features     int        // nodes carrying postings
	postings     int64      // over all nodes
	postingBytes int64
	ds           []*graph.Graph
	locs         ftv.LocSets
}

type trieNode struct {
	labels []graph.Label // the children's labels, ascending
	kids   []int32       // parallel to labels: positions in Trie.nodes
	posts  PostingList
	locs   []ftv.LocRef // posts' sets in Trie.locs, by ordinal; nil without locations
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

// FoldTrie builds the trie over graphs ds from their extracted features,
// feats[g] being ds[g]'s. The first pass finds or creates every feature's
// node and measures its posting list; the lists are then carved from one slab
// and filled graph by graph, which leaves them ascending with no sort and no
// spare capacity. withLocations keeps the features' location sets: each
// graph's slab is appended to the trie's as it is, so a set keeps the form
// the extraction gave it.
func FoldTrie(ds []*graph.Graph, feats []*ftv.Features, withLocations bool) *Trie {
	t := &Trie{nodes: make([]trieNode, 1), ds: ds}
	var (
		nodeOf []int32    // per (graph, feature) pair, in fold order
		sizes  []listSize // per node: the list of its sequence
	)
	for g, f := range feats {
		for i := 0; i < f.Len(); i++ {
			at := t.node(f.Labels(i))
			for len(sizes) < len(t.nodes) {
				sizes = append(sizes, listSize{})
			}
			sizes[at].add(int32(g), f.Count(i))
			nodeOf = append(nodeOf, at)
		}
	}
	for _, z := range sizes {
		t.postingBytes += int64(z.bytes())
	}
	t.postings = int64(len(nodeOf))
	postSlab := make([]byte, t.postingBytes)
	var refSlab []ftv.LocRef
	if withLocations {
		refSlab = make([]ftv.LocRef, len(nodeOf))
		rowWords, listIDs := 0, 0
		for _, f := range feats {
			r, l := f.LocSets().Size()
			rowWords, listIDs = rowWords+r, listIDs+l
		}
		t.locs.Reserve(rowWords, listIDs)
	}
	next := 0
	for g, f := range feats {
		var rowBase, listBase int32
		if withLocations {
			rowBase, listBase = t.locs.AppendAll(f.LocSets())
		}
		for i := 0; i < f.Len(); i++ {
			n := &t.nodes[nodeOf[next]]
			if n.posts.Len() == 0 {
				z := sizes[nodeOf[next]]
				n.posts = carve(&postSlab, z)
				if withLocations {
					n.locs, refSlab = refSlab[:0:z.n], refSlab[z.n:]
				}
				t.features++
			}
			next++
			n.posts.push(int32(g), f.Count(i))
			if withLocations {
				n.locs = append(n.locs, f.LocRef(i).Shifted(rowBase, listBase))
			}
		}
	}
	return t
}

// RestoreTrie rebuilds a trie over graphs ds from exported features (whose
// order and bounds Restore has checked): each feature was exported from
// exactly one node, so re-inserting every (labels, postings) pair
// reconstructs the trie node for node, with no path enumeration.
// withLocations packs the postings' location IDs into the form a set over
// its graph takes (ftv.RowForm) — the same one the extraction gave it.
func RestoreTrie(ds []*graph.Graph, feats []ExportedFeature, withLocations bool) *Trie {
	t := &Trie{nodes: make([]trieNode, 1), features: len(feats), ds: ds}
	sizes := make([]listSize, len(feats))
	rowWords, listIDs := 0, 0
	for i, f := range feats {
		sizes[i] = measure(f.Postings)
		t.postings += int64(len(f.Postings))
		t.postingBytes += int64(sizes[i].bytes())
		if !withLocations {
			continue
		}
		for _, p := range f.Postings {
			if words := ftv.Words(ds[p.GraphID].N()); ftv.RowForm(len(p.Locations), words) {
				rowWords += words
			} else {
				listIDs += len(p.Locations)
			}
		}
	}
	postSlab := make([]byte, t.postingBytes)
	var refSlab []ftv.LocRef
	if withLocations {
		refSlab = make([]ftv.LocRef, 0, t.postings)
		t.locs.Reserve(rowWords, listIDs)
	}
	for i, f := range feats {
		n := &t.nodes[t.node(f.Labels)]
		n.posts = carve(&postSlab, sizes[i])
		from := len(refSlab)
		for _, p := range f.Postings {
			n.posts.push(int32(p.GraphID), p.Count)
			if withLocations {
				refSlab = append(refSlab, t.locs.AppendList(p.Locations, ftv.Words(ds[p.GraphID].N())))
			}
		}
		if withLocations {
			n.locs = refSlab[from:len(refSlab):len(refSlab)]
		}
	}
	return t
}

// Lookup returns the posting list of an exact label sequence and, for a trie
// with locations, the references into LocSets, indexed by a posting's ordinal
// in the list; posts is empty when the sequence is not an indexed feature.
func (t *Trie) Lookup(labels []graph.Label) (posts PostingList, locs []ftv.LocRef) {
	n := &t.nodes[0]
	for _, l := range labels {
		i, ok := slices.BinarySearch(n.labels, l)
		if !ok {
			return PostingList{}, nil
		}
		n = &t.nodes[n.kids[i]]
	}
	return n.posts, n.locs
}

// LocSets returns the location sets the postings refer to; empty for a trie
// without locations.
func (t *Trie) LocSets() *ftv.LocSets { return &t.locs }

// Nodes reports the number of trie nodes, the root included.
func (t *Trie) Nodes() int { return len(t.nodes) }

// Features reports the number of distinct indexed label sequences.
func (t *Trie) Features() int { return t.features }

// Postings reports the number of postings over all features and the bytes of
// the packed lists holding them.
func (t *Trie) Postings() (n, bytes int64) { return t.postings, t.postingBytes }

// ExportFeatures visits every feature in canonical order — the
// FeatureExporter walk shared by the trie-backed kinds. The export is where
// location sets leave their stored form: each is expanded to ascending vertex
// IDs, one allocation per feature.
func (t *Trie) ExportFeatures(visit func(labels []graph.Label, postings []FeaturePosting) error) error {
	var labels []graph.Label
	var walk func(n *trieNode) error
	walk = func(n *trieNode) error {
		if n.posts.Len() > 0 {
			ps := n.posts.export()
			if n.locs != nil {
				members := 0
				for i, p := range ps {
					members += t.locs.Members(n.locs[i], ftv.Words(t.ds[p.GraphID].N()))
				}
				ids := make([]int32, 0, members)
				for i, p := range ps {
					from := len(ids)
					ids = t.locs.AppendIDs(ids, n.locs[i], ftv.Words(t.ds[p.GraphID].N()))
					if len(ids) > from { // the empty set is nil, as the snapshot decodes it
						ps[i].Locations = ids[from:len(ids):len(ids)]
					}
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
