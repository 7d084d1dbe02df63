package ftv

// Path-feature extraction: the one pass every filtering index is folded
// from. A graph's features are the label sequences of its simple paths of
// 1..maxLen edges, each under its oriented spelling only (Oriented: the
// mirror spelling has the same count and locations, so it is never stored),
// with its number of directed occurrences and, optionally, the set of
// vertices those occurrences touch (Grapes' locations), held from here to
// verification in one form (LocSets).
//
// The enumeration is graph.WalkPaths' DFS, in which every node below a start
// vertex is one path occurrence, so the extractor does O(1) work per node:
// it walks a per-graph LabelTrie alongside the DFS — the slot of a path is
// the child, under the path's last label, of its prefix's slot: one table
// probe — bumps the slot's count and, when the slot is an oriented spelling
// (decided once, when the slot is made), records the path's vertices in the
// slot's location set (locate). The DFS meets every undirected path from
// both ends; the end that spells it backwards costs the probe and an
// increment nobody reads. No label slice, key or hash set is built per path,
// and the same code serves any label width and any maxLen.

import (
	"context"
	"math/bits"
	"slices"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
)

// Features is one graph's path features — each undirected label path once,
// under its oriented spelling — in canonical order — label sequences
// ascending lexicographically, a shorter prefix first, the feature order of
// the snapshot format — stored flat: indexes folded from the
// features of graphs 0..n-1 in that order get posting lists that are born
// sorted. Immutable once extracted.
type Features struct {
	labels  []graph.Label // the label sequences, concatenated
	ends    []int32       // feature i's labels end at labels[ends[i]]
	counts  []int32
	words   int      // the graph's bitset row length
	locs    LocSets  // the location sets
	locRefs []LocRef // feature i's set in locs; nil when locations were not tracked
}

// Len is the number of distinct features.
func (f *Features) Len() int { return len(f.counts) }

// Labels returns feature i's label sequence. Callers must not modify it.
func (f *Features) Labels(i int) []graph.Label { return f.labels[start(f.ends, i):f.ends[i]] }

// Count returns feature i's number of directed occurrences: simple paths as
// vertex sequences that spell it, so an undirected path that reads the same
// from both ends counts twice.
func (f *Features) Count(i int) int32 { return f.counts[i] }

// LocSets returns the slab holding the features' location sets, and LocRef
// feature i's set in it, when locations were tracked.
func (f *Features) LocSets() *LocSets   { return &f.locs }
func (f *Features) LocRef(i int) LocRef { return f.locRefs[i] }

// Locations expands feature i's location set to the ascending vertex IDs its
// occurrences touch; nil when locations were not tracked.
func (f *Features) Locations(i int) []int32 {
	if f.locRefs == nil {
		return nil
	}
	return f.locs.AppendIDs(nil, f.locRefs[i], f.words)
}

func start(ends []int32, i int) int32 {
	if i == 0 {
		return 0
	}
	return ends[i-1]
}

// ExtractFeatures enumerates every simple path of 1..maxLen edges of g (in
// both directions, as the DFS from every start vertex naturally does) and
// aggregates the occurrences that spell an oriented label sequence by that
// sequence. When withLocations is true each feature also records the
// vertices covered by its occurrences.
func ExtractFeatures(g *graph.Graph, maxLen int, withLocations bool) *Features {
	// The background context never cancels, so the error is always nil.
	feats, _ := ExtractFeaturesContext(context.Background(), g, maxLen, withLocations)
	return feats
}

// extractCancelCheckEvery is how many enumerated paths pass between context
// checks during extraction — frequent enough that cancelling an index build
// takes effect mid-graph, rare enough to stay off the enumeration hot path.
const extractCancelCheckEvery = 1 << 12

// ExtractFeaturesContext is ExtractFeatures with cooperative cancellation:
// the enumeration checks ctx every few thousand paths and abandons the graph
// with ctx's error when it has been cancelled. Dense graphs can hold billions
// of bounded simple paths, so an uncancellable extraction would pin a worker
// long after its query or build was abandoned.
func ExtractFeaturesContext(ctx context.Context, g *graph.Graph, maxLen int, withLocations bool) (*Features, error) {
	// Upfront check so an already-cancelled build aborts even on graphs
	// too small to reach the periodic mid-enumeration check.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := newExtractor(ctx, g, withLocations)
	g.WalkPaths(maxLen, 0, e.visit)
	if e.cancelled {
		return nil, ctx.Err()
	}
	return e.features(), nil
}

// extractor is the per-graph label trie grown alongside the path DFS, with
// the per-slot aggregates. An oriented slot of two or more labels is a
// feature; the others are only stepped through.
type extractor struct {
	ctx     context.Context
	vlabels []graph.Label

	trie     *LabelTrie
	oriented []bool  // per slot: its sequence is an oriented spelling
	count    []int32 // per slot: occurrences

	// Locations, one set of vertices per slot (see locate). words is
	// Words(n), the length of a bitset row over the graph's vertices, and 0
	// when locations are not tracked. locRef[s] says where slot s's set is:
	// r > 0 is the r-1'th row of rows, r < 0 is lists[-r-1], 0 is nowhere yet.
	words  int
	locRef []int32
	lists  [][]int32
	rows   []uint64

	sinceCheck int
	cancelled  bool
}

func newExtractor(ctx context.Context, g *graph.Graph, withLocations bool) *extractor {
	e := &extractor{
		ctx:      ctx,
		vlabels:  g.Labels(),
		trie:     NewLabelTrie(),
		oriented: []bool{true},
		count:    []int32{0},
	}
	if withLocations {
		e.words = Words(g.N())
		e.locRef = []int32{0}
	}
	return e
}

// visit is the graph.WalkPaths callback: one call per DFS node, carrying
// the parent node's slot down.
func (e *extractor) visit(parent int32, path []int32) (int32, bool) {
	slot := e.trie.Child(parent, e.vlabels[path[len(path)-1]])
	if int(slot) == len(e.count) {
		e.oriented = append(e.oriented, e.orientedPath(path))
		e.count = append(e.count, 0)
		if e.words > 0 {
			e.locRef = append(e.locRef, 0)
		}
	}
	if len(path) == 1 {
		return slot, true // a start vertex: a trie node, not a path
	}
	// A mirror spelling is counted too and dropped in features(): the
	// increment is cheaper than a data-dependent branch on every path.
	e.count[slot]++
	if e.words > 0 && e.oriented[slot] {
		e.locate(slot, path)
	}
	if e.sinceCheck++; e.sinceCheck >= extractCancelCheckEvery {
		e.sinceCheck = 0
		if e.ctx.Err() != nil {
			e.cancelled = true
			return slot, false
		}
	}
	return slot, true
}

// orientedPath is Oriented of the path's label sequence, read off its
// vertices.
func (e *extractor) orientedPath(path []int32) bool {
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		if a, b := e.vlabels[path[i]], e.vlabels[path[j]]; a != b {
			return a < b
		}
	}
	return true
}

// locate adds one occurrence's vertices to its slot's location set, which is
// kept in whichever of two forms is smaller. It starts as a list the
// occurrences' vertices are appended to, duplicates and all; when the list
// would weigh what a bitset row over the graph's vertices does (2·words
// int32s) the slot spills into a row, for good. So a slot's scratch is
// bounded by what its paths touch — a large sparse graph over many labels has
// about one feature per path, and a row of ⌈n/64⌉ words for each would be
// gigabytes — and by one row: a small graph over few labels funnels thousands
// of occurrences into each feature, and there a slot is a row from its first
// few occurrences on, at a handful of ORs per occurrence.
func (e *extractor) locate(slot int32, path []int32) {
	ref := e.locRef[slot]
	var list []int32 // the slot's list, while it is one
	if ref <= 0 {
		if ref < 0 {
			list = e.lists[-ref-1]
		}
		if len(list)+len(path) < 2*e.words {
			if ref == 0 {
				e.lists = append(e.lists, nil)
				ref = -int32(len(e.lists))
				e.locRef[slot] = ref
			}
			e.lists[-ref-1] = append(list, path...)
			return
		}
		if ref < 0 {
			e.lists[-ref-1] = nil
		}
		e.rows = append(e.rows, make([]uint64, e.words)...)
		ref = int32(len(e.rows) / e.words)
		e.locRef[slot] = ref
	}
	row := e.row(ref)
	for _, v := range list { // only when spilling
		row[v>>6] |= 1 << (v & 63)
	}
	for _, v := range path {
		row[v>>6] |= 1 << (v & 63)
	}
}

func (e *extractor) row(ref int32) []uint64 {
	return e.rows[int(ref-1)*e.words : int(ref)*e.words]
}

// features flattens the aggregates into canonical order, sized exactly. A
// slot's scratch form records how its occurrences happened to arrive — a row
// may have spilled on duplicates and hold few vertices — so the stored form
// is chosen here, from the set itself.
func (e *extractor) features() *Features {
	nFeats, nLabels := 0, 0
	for s := int32(1); int(s) < e.trie.Len(); s++ {
		if d := e.trie.Depth(s); d >= 2 && e.oriented[s] {
			nFeats++
			nLabels += d
		}
	}
	f := &Features{
		labels: make([]graph.Label, 0, nLabels),
		ends:   make([]int32, 0, nFeats),
		counts: make([]int32, 0, nFeats),
		words:  e.words,
	}
	withLocations := e.words > 0
	if withLocations {
		// Slots that are not features hold nothing. A scratch list is
		// shorter than a row even before its duplicates go.
		rowWords, listIDs := 0, 0
		for i, list := range e.lists {
			slices.Sort(list)
			e.lists[i] = slices.Compact(list)
			listIDs += len(e.lists[i])
		}
		for at := 0; at < len(e.rows); at += e.words {
			members := 0
			for _, word := range e.rows[at : at+e.words] {
				members += bits.OnesCount64(word)
			}
			if RowForm(members, e.words) {
				rowWords += e.words
			} else {
				listIDs += members
			}
		}
		f.locs.Reserve(rowWords, listIDs)
		f.locRefs = make([]LocRef, 0, nFeats)
	}
	e.trie.Walk(func(s int32, labels []graph.Label) {
		if len(labels) < 2 || !e.oriented[s] {
			return
		}
		f.labels = append(f.labels, labels...)
		f.ends = append(f.ends, int32(len(f.labels)))
		f.counts = append(f.counts, e.count[s])
		if withLocations {
			if ref := e.locRef[s]; ref < 0 {
				f.locRefs = append(f.locRefs, f.locs.AppendList(e.lists[-ref-1], e.words))
			} else {
				f.locRefs = append(f.locRefs, f.locs.AppendRow(e.row(ref)))
			}
		}
	})
	return f
}

// ExtractDatasetFeatures extracts the path features of every dataset graph
// across the pool's workers (nil selects the shared default pool) and returns
// them positionally: out[i] holds graph i's features. Because consumers fold
// the results in slice order, index builds are deterministic regardless of
// worker count — only the wall-clock time changes. Cancelling ctx aborts
// extraction (including mid-graph, via ExtractFeaturesContext) and returns
// the context's error.
func ExtractDatasetFeatures(ctx context.Context, p *exec.Pool, ds []*graph.Graph, maxLen int, withLocations bool) ([]*Features, error) {
	out := make([]*Features, len(ds))
	if len(ds) <= 1 {
		for i, g := range ds {
			feats, err := ExtractFeaturesContext(ctx, g, maxLen, withLocations)
			if err != nil {
				return nil, err
			}
			out[i] = feats
		}
		return out, nil
	}
	if p == nil {
		p = exec.Default()
	}
	grp := p.NewGroup(ctx)
	for i := range ds {
		grp.Go(func(gctx context.Context) error {
			feats, err := ExtractFeaturesContext(gctx, ds[i], maxLen, withLocations)
			if err != nil {
				return err
			}
			out[i] = feats
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}
