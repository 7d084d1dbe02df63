package ftv

// Path-feature extraction: the one pass every filtering index is folded
// from. A graph's features are the label sequences of its simple paths of
// 1..maxLen edges, each under its oriented spelling only (Oriented: the
// mirror spelling has the same count and locations, so it is never stored),
// with its number of directed occurrences and, optionally, the set of
// vertices those occurrences touch (Grapes' locations), held from here to
// verification in one form (LocSets).
//
// The enumeration is the extractor's own DFS over the graph's adjacency
// regrouped, in build scratch, into runs of equally labelled neighbours: every
// node below a start vertex is one path occurrence, and all the extensions of
// a path by one run share a label sequence, so the extractor works a run at a
// time. It walks a per-graph LabelTrie alongside the DFS — the slot of a
// sequence is the child, under its last label, of its prefix's slot: one table
// probe per run — adds the run's members off the path to the slot's count
// and, when the slot is an oriented spelling (decided once, when the slot is
// made), records their vertices in the slot's location set (locate). The DFS
// meets every undirected path from both ends; at the deepest level, most of
// the walk, a run that spells its paths backwards is skipped on its label
// alone, so no slot is ever made for a mirror spelling of full length. No
// label slice, key or hash set is built per path, and the same code serves
// any label width and any maxLen.

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
	return new(extractor).extract(ctx, g, maxLen, withLocations)
}

// extractor is one extraction's scratch, reused from graph to graph by the
// build that owns it (ExtractDatasetFeatures): the graph's label-run
// adjacency, the DFS state, and the per-graph label trie grown alongside the
// DFS with its per-slot aggregates. An oriented slot of two or more labels is
// a feature; the others are only stepped through.
type extractor struct {
	ctx     context.Context
	vlabels []graph.Label
	maxLen  int

	// The adjacency regrouped by (neighbour label, neighbour ID): vertex v's
	// neighbours are adj[off[v]:off[v+1]], cut into runs[runOff[v]:runOff[v+1]],
	// one per distinct label, ascending. The stored graph's neighbour order,
	// which fixes every matcher's embedding order, is not touched.
	off, adj, runOff, fill []int32
	runs                   []labelRun

	path    []int32       // the DFS path, min(maxLen+1, n) long
	plabels []graph.Label // its vertices' labels
	onPath  []uint8       // per vertex: 1 while on the path

	trie     LabelTrie
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
}

// labelRun is the neighbours of one vertex that carry label: its adjacency
// from the previous run's end up to adj[end].
type labelRun struct {
	label graph.Label
	end   int32
}

// resized returns s with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func resized[S ~[]E, E any](s S, n int) S { return slices.Grow(s[:0], n)[:n] }

// extract is ExtractFeaturesContext on e's scratch, which is overwritten.
func (e *extractor) extract(ctx context.Context, g *graph.Graph, maxLen int, withLocations bool) (*Features, error) {
	// Upfront check so an already-cancelled build aborts even on graphs
	// too small to reach the periodic mid-enumeration check.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := g.N()
	e.ctx, e.vlabels, e.maxLen, e.sinceCheck = ctx, g.Labels(), maxLen, 0
	e.trie.reset()
	e.oriented, e.count = append(e.oriented[:0], true), append(e.count[:0], 0)
	e.words, e.locRef, e.lists, e.rows = 0, e.locRef[:0], e.lists[:0], e.rows[:0]
	if withLocations {
		e.words, e.locRef = Words(n), append(e.locRef, 0)
	}
	e.regroup(g)
	// A simple path visits at most every vertex: maxLen, which may come from
	// a snapshot file, sizes nothing beyond that.
	depth := min(maxLen+1, n)
	e.path, e.plabels, e.onPath = resized(e.path, depth), resized(e.plabels, depth), resized(e.onPath, n)
	clear(e.onPath) // a cancelled walk leaves its path marked
	for v := 0; v < n && maxLen >= 1; v++ {
		e.path[0], e.plabels[0] = int32(v), e.vlabels[v]
		if !e.descend(e.child(0, 1), 0) {
			return nil, ctx.Err()
		}
	}
	return e.features(), nil
}

// regroup lays out g's label-run adjacency. Taking the vertices in (label,
// ID) order and appending each to its neighbours' lists fills every list in
// that order with no sort.
func (e *extractor) regroup(g *graph.Graph) {
	n := g.N()
	e.off = resized(e.off, n+1)
	e.off[0] = 0
	for v := 0; v < n; v++ {
		e.off[v+1] = e.off[v] + int32(g.Degree(v))
	}
	e.adj, e.fill = resized(e.adj, int(e.off[n])), append(e.fill[:0], e.off[:n]...)
	for _, l := range g.LabelValues() {
		for _, u := range g.VerticesWithLabel(l) {
			for _, v := range g.Neighbors(int(u)) {
				e.adj[e.fill[v]] = u
				e.fill[v]++
			}
		}
	}
	e.runs, e.runOff = e.runs[:0], append(e.runOff[:0], 0)
	for v := 0; v < n; v++ {
		for i := e.off[v]; i < e.off[v+1]; i++ {
			if l := e.vlabels[e.adj[i]]; i == e.off[v] || l != e.runs[len(e.runs)-1].label {
				e.runs = append(e.runs, labelRun{label: l})
			}
			e.runs[len(e.runs)-1].end = i + 1
		}
		e.runOff = append(e.runOff, int32(len(e.runs)))
	}
}

// child returns the slot of plabels[:n], the child of its prefix's slot
// parent, making it on first use.
func (e *extractor) child(parent int32, n int) int32 {
	s := e.trie.Child(parent, e.plabels[n-1])
	if int(s) == len(e.count) {
		e.oriented = append(e.oriented, Oriented(e.plabels[:n]))
		e.count = append(e.count, 0)
		if e.words > 0 {
			e.locRef = append(e.locRef, 0)
		}
	}
	return s
}

// descend extends path[:depth+1], whose sequence has slot slot, by every
// neighbour of its last vertex that is off it, one label run — one child slot
// — at a time, and reports whether the walk goes on: false once ctx, polled
// every extractCancelCheckEvery paths, is cancelled.
func (e *extractor) descend(slot int32, depth int) bool {
	v := e.path[depth]
	e.onPath[v] = 1
	leaf := depth+1 == e.maxLen
	from, runs := e.off[v], e.runs[e.runOff[v]:e.runOff[v+1]]
	if leaf {
		// At full length nothing is stepped through, so a mirror spelling is
		// nobody's prefix: the walks from the other ends record its paths,
		// and its run goes untouched. Such runs come first: a label below the
		// start vertex's, or equal to it with path[1:] spelt backwards.
		first := e.plabels[0]
		for len(runs) > 0 && (runs[0].label < first || runs[0].label == first && !Oriented(e.plabels[1:depth+1])) {
			from, runs = runs[0].end, runs[1:]
		}
	}
	for _, r := range runs {
		members := e.adj[from:r.end]
		from = r.end
		k := len(members)
		for _, u := range members {
			k -= int(e.onPath[u])
		}
		if k == 0 {
			continue // probing would make a slot that counts nothing
		}
		e.plabels[depth+1] = r.label
		child := e.child(slot, depth+2)
		// A mirror spelling stepped through is counted too and dropped in
		// features(): the add is cheaper than a data-dependent branch.
		e.count[child] += int32(k)
		if e.words > 0 && e.oriented[child] {
			e.locate(child, e.path[:depth+1], members)
		}
		if e.sinceCheck += k; e.sinceCheck >= extractCancelCheckEvery {
			e.sinceCheck = 0
			if e.ctx.Err() != nil {
				return false
			}
		}
		if leaf {
			continue
		}
		for _, u := range members {
			if e.onPath[u] == 0 {
				e.path[depth+1] = u
				if !e.descend(child, depth+1) {
					return false
				}
			}
		}
	}
	e.onPath[v] = 0
	return true
}

// locate adds to a slot's location set the vertices of a run's occurrences:
// prefix and the run's members (those on the path are prefix's own). The set
// is kept in whichever of two forms is smaller. It starts as a list the
// occurrences' vertices are appended to, duplicates and all; when the list
// would weigh what a bitset row over the graph's vertices does (2·words
// int32s) the slot spills into a row, for good. So a slot's scratch is
// bounded by what its paths touch — a large sparse graph over many labels has
// about one feature per path, and a row of ⌈n/64⌉ words for each would be
// gigabytes — and by one row: a small graph over few labels funnels thousands
// of occurrences into each feature, and there a slot is a row from its first
// few occurrences on, at a handful of ORs per run.
func (e *extractor) locate(slot int32, prefix, members []int32) {
	ref := e.locRef[slot]
	var list []int32 // the slot's list, while it is one
	if ref <= 0 {
		if ref < 0 {
			list = e.lists[-ref-1]
		}
		if len(list)+len(prefix)+len(members) < 2*e.words {
			if ref == 0 {
				// Take the next list of an earlier graph's, or a new one.
				if n := len(e.lists); n < cap(e.lists) {
					e.lists = e.lists[:n+1]
					list = e.lists[n][:0]
				} else {
					e.lists = append(e.lists, nil)
				}
				ref = -int32(len(e.lists))
				e.locRef[slot] = ref
			}
			e.lists[-ref-1] = append(append(slices.Grow(list, len(prefix)+len(members)), prefix...), members...)
			return
		}
		if ref < 0 {
			e.lists[-ref-1] = list[:0]
		}
		e.rows = append(e.rows, make([]uint64, e.words)...)
		ref = int32(len(e.rows) / e.words)
		e.locRef[slot] = ref
	}
	row := e.row(ref)
	setBits(row, list) // only when spilling
	setBits(row, prefix)
	setBits(row, members)
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
// extraction (including mid-graph, as ExtractFeaturesContext does) and
// returns the context's error.
//
// The call owns the extraction scratch: a task takes the extractor a finished
// task put back, or makes one, so a worker regrows nothing from graph to
// graph, and all of it is garbage when the call returns — a package-level
// sync.Pool would carry it past the build into the heap a caller measures.
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
	free := make(chan *extractor, p.Workers()) // one per task that can run at once
	grp := p.NewGroup(ctx)
	for i := range ds {
		grp.Go(func(gctx context.Context) error {
			var e *extractor
			select {
			case e = <-free:
			default:
				e = new(extractor)
			}
			feats, err := e.extract(gctx, ds[i], maxLen, withLocations)
			if err != nil {
				return err
			}
			out[i] = feats
			select {
			case free <- e:
			default: // a closed pool runs tasks beyond its size
			}
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}
