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
// regrouped, in build scratch, into runs of equally labelled neighbours: all
// the extensions of a path by one run share a label sequence, so the
// extractor works a run at a time. It walks a LabelTrie alongside the DFS —
// the slot of a sequence is the child, under its last label, of its prefix's
// slot: one lookup per run, an index into the parent's row over the
// alphabet's label ranks when the alphabet is small, a hash probe otherwise —
// adds the run's members off the path to the slot's count and, when the slot
// is an oriented spelling (decided once, when the slot is made), records their
// vertices in the slot's location set (locate).
//
// The DFS stops at depth D = maxLen-2 and counts both remaining levels there
// at once, for each run R of the last vertex (lastTwo): the paths two edges
// longer through R that end on label b number S(R, b), R's members'
// neighbours of label b summed once per graph (twoHop), less the extensions
// that are not simple paths, which a pass over R and the path finds. So the
// walk visits a graph's paths of maxLen-2 edges, not its far more numerous
// full-length ones (the stragglers dataset: 0.93 M against 8.45 M). A
// full-length spelling's count is taken where it is oriented; the DFS meets
// its mirror from the path's other end. Counting alone, that pays over any
// alphabet: on synthetic and PPI-style datasets of 10 to 46 labels it ran
// 10–43 % faster than stepping through every level, and over 32 to 300 labels
// within 3 % of it.
//
// Grapes' location sets of full-length features need no walk over the last
// two levels either: every occurrence is met from both of its ends, and the
// prefixes of D+1 vertices met at the two ends cover all its vertices once
// maxLen >= 3, so a feature's set is the union of P over the nodes P that
// give either spelling a non-zero count, the mirror's reaching the feature's
// set through its slot's mirror (mirror). That costs a lookup and a location
// per node, run and label b under each spelling, where stepping through the
// last level costs one per oriented run of full-length paths, so it pays only
// where a (P, a, b) triple stands for several paths: in graphs whose label
// runs are long (bothEndsMinRun). A walk with locations over shorter runs, or
// at maxLen 2, where the two ends miss the middle vertex, steps through every
// level, as do maxLen 1 and maxLen past 66, past a word of path positions.
// That walk skips a full-length mirror spelling on its label alone and counts
// and locates each path from its oriented end. No label slice, key or hash
// set is built per path, and the same code serves any label width.
//
// A feature leaves the extractor as its trie slot. The graphs of one dataset
// spell mostly the same sequences (the benchmark's 300 × 50-vertex, 8-label
// dataset: 1.59 M (graph, feature) pairs over 19 044 distinct sequences), so
// a worker keeps its trie from graph to graph, a graph's features are the
// slots it counted, in the order it first reached them, and a fold interns
// each slot of each trie once rather than every label of every posting
// (index.FoldPath).

import (
	"cmp"
	"context"
	"math/bits"
	"slices"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
)

// Features is one graph's path features — each undirected label path once,
// under its oriented spelling — as slots of the label trie its extraction
// walked, in the order the walk first reached each. That trie may hold other
// graphs' slots too (ExtractDatasetFeatures), so a feature's slot names its
// sequence only within Trie. Canonical gives the features in canonical order
// — label sequences ascending lexicographically, a shorter prefix first, the
// feature order of the snapshot format. Immutable once extracted.
type Features struct {
	trie    *LabelTrie
	slots   []int32 // feature i's sequence is trie slot slots[i]
	counts  []int32
	words   int      // the graph's bitset row length
	locs    LocSets  // the location sets
	locRefs []LocRef // feature i's set in locs; nil when locations were not tracked
}

// Len is the number of distinct features.
func (f *Features) Len() int { return len(f.counts) }

// Trie returns the label trie the features' slots are in.
func (f *Features) Trie() *LabelTrie { return f.trie }

// Slot returns feature i's slot in Trie.
func (f *Features) Slot(i int) int32 { return f.slots[i] }

// AppendLabels appends feature i's label sequence to dst.
func (f *Features) AppendLabels(dst []graph.Label, i int) []graph.Label {
	return f.trie.AppendLabels(dst, f.slots[i])
}

// Canonical returns the features' indices in canonical order, found by a walk
// of Trie: as long as the trie, not the graph, and one allocation.
func (f *Features) Canonical() []int32 {
	n := f.trie.Len()
	buf := make([]int32, n+len(f.slots)+f.trie.walkScratch())
	at, order := buf[:n], buf[n:n:n+len(f.slots)] // at: slot → feature + 1
	for i, s := range f.slots {
		at[s] = int32(i + 1)
	}
	f.trie.preorder(buf[n+len(f.slots):], func(s int32) {
		if at[s] > 0 {
			order = append(order, at[s]-1)
		}
	})
	return order
}

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
	return newExtractor(g.LabelValues()).extract(ctx, g, maxLen, withLocations)
}

// trieSealSlots is how large a worker's trie may grow before the worker
// starts a new one at its next graph. Graphs over many labels share few
// sequences, and there a trie kept across graphs grows without paying off; a
// sealed trie keeps its slots for the features that name them and hands its
// table to the next. Graphs that share their sequences hold far fewer (19 044
// on the benchmark's 8-label dataset); on 40 × 300-vertex graphs over 100
// labels, which add some 85 k slots each, a build sealing at 2^18 slots ran
// 7 % slower than with a trie per graph, and one sealing at 2^20, whose table
// grows to 2^22 cells, 12 %. Only tests change it.
var trieSealSlots = 1 << 18

// bothEndsMinRun is the mean label run, a graph's adjacency entries per run,
// from which an extraction with locations takes its full-length location
// sets from both ends of each path (lastTwo) rather than stepping through
// every level: a (P, a, b) triple stands for about as many paths as a run
// holds members. Both ways against each other on 2 vCPUs, with locations, on
// datasets from 6 to 300 labels, both ends took 0.62–0.64 of the walk's time
// at mean runs of 1.90–2.14, 0.94 at 1.86, 1.12–1.16 at 1.63–1.64, 1.3–1.9 at
// 1.35–1.50 and 2.4–2.9 at 1.21–1.27; the stragglers dataset's runs average
// 2.45. Only tests change it.
var bothEndsMinRun = 1.75

// extractor is one extraction's scratch, reused from graph to graph by the
// build that owns it (ExtractDatasetFeatures): the graph's label-run
// adjacency, the DFS state, and the label trie grown alongside the DFS with
// its per-slot state, which outlive a graph. An oriented slot of two or more
// labels is a feature; the others are only stepped through.
type extractor struct {
	ctx    context.Context
	maxLen int
	// split is the depth of the DFS nodes that count the last two levels
	// (lastTwo), maxLen-2, or -1 when the walk steps through every level:
	// at maxLen 1, past a word of path positions, and with locations at
	// maxLen 2 or over short label runs (bothEndsMinRun).
	split int

	// alphabet is the labels of every graph the extractor is given,
	// ascending; the walk reads a label as its rank in it, which orders
	// sequences as their labels do.
	alphabet []graph.Label
	vrank    []graph.Label // per vertex: its label's rank

	// The adjacency regrouped by (neighbour label, neighbour ID): vertex v's
	// neighbours are adj[off[v]:off[v+1]], cut into runs[runOff[v]:runOff[v+1]],
	// one per distinct label, ascending. The stored graph's neighbour order,
	// which fixes every matcher's embedding order, is not touched.
	off, adj, runOff, fill []int32
	runs                   []labelRun
	// two holds, per run R, the S(R, b) of every label b its members
	// neighbour: run i's are two[runs[i-1].twoEnd:runs[i].twoEnd].
	two []rankCount
	sub []int32 // per rank: the scratch of twoHop and lastTwo, zero between runs

	path   []int32       // the DFS path, min(maxLen+1, n) long
	pranks []graph.Label // its vertices' label ranks, and those of the one or two it is extended by
	onPath []uint8       // per vertex: 1 while on the path
	near   []uint64      // per vertex: bit i set while it neighbours path[i], i < split
	rev    []graph.Label // mirror's scratch

	trie    *LabelTrie
	state   []slotState // per slot of trie
	mirrors []int32     // per slot of trie, as far as mirror has grown it: its mirror's slot, 0 until looked up
	touched []int32     // the slots the graph counted or located, in the order it first did

	// Locations, one set of vertices per slot (see locate). words is
	// Words(n), the length of a bitset row over the graph's vertices, and 0
	// when locations are not tracked.
	words int
	lists [][]int32
	rows  []uint64

	sinceCheck int
}

// newExtractor returns the scratch of an extraction over graphs whose labels
// are all in alphabet.
func newExtractor(alphabet []graph.Label) *extractor { return &extractor{alphabet: alphabet} }

// slotState is what the extractor holds per trie slot. A slot's count and
// location set are the current graph's, zero outside touched.
type slotState struct {
	count int32 // occurrences
	// locRef says where the slot's location set is: r > 0 is the r-1'th row
	// of rows, r < 0 is lists[-r-1], 0 is nowhere yet.
	locRef   int32
	oriented bool // the slot's sequence is an oriented spelling
}

// labelRun is the neighbours of one vertex that carry the label of rank
// rank: its adjacency from the previous run's end up to adj[end].
type labelRun struct {
	rank        graph.Label
	end, twoEnd int32
}

// rankCount is one S(R, b): rank is b's.
type rankCount struct {
	rank graph.Label
	n    int32
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
	e.ctx, e.maxLen, e.sinceCheck = ctx, maxLen, 0
	// The previous graph's counts and locations go through the slots it
	// touched, which a cancelled walk leaves in place too.
	for _, s := range e.touched {
		e.state[s].count, e.state[s].locRef = 0, 0
	}
	e.touched = e.touched[:0]
	if e.trie == nil {
		e.trie = newRankTrie(e.alphabet)
		e.state = append(e.state, slotState{oriented: true})
	} else if n := e.trie.Len(); n > trieSealSlots {
		// The next trie likely grows as large, so it gets the room now.
		e.trie = newLabelTrie(e.trie.seal(), n)
		e.state, e.mirrors = e.state[:1], e.mirrors[:0]
	}
	e.words, e.lists, e.rows = 0, e.lists[:0], e.rows[:0]
	if withLocations {
		e.words = Words(n)
	}
	e.regroup(g)
	// lastTwo marks the path's positions in a word per vertex and takes a
	// long path's locations from its two ends, which miss the middle vertex
	// of a 2-edge path and pay only over long label runs; the walks it does
	// not serve step through every level.
	e.split = maxLen - 2
	if maxLen < 2 || e.split > 64 || withLocations && (maxLen == 2 || float64(len(e.adj)) < bothEndsMinRun*float64(len(e.runs))) {
		e.split = -1
	}
	if e.split >= 0 {
		e.twoHop()
	}
	// A simple path visits at most every vertex: maxLen, which may come from
	// a snapshot file, sizes nothing beyond that.
	e.path, e.pranks = resized(e.path, min(maxLen+1, n)), resized(e.pranks, min(maxLen+1, n+2))
	e.onPath, e.near = resized(e.onPath, n), resized(e.near, n)
	clear(e.onPath) // a cancelled walk leaves its path marked
	clear(e.near)
	for v := 0; v < n && maxLen >= 1; v++ {
		e.path[0], e.pranks[0] = int32(v), e.vrank[v]
		if !e.descend(e.child(0, e.pranks[:1]), 0) {
			return nil, ctx.Err()
		}
	}
	return e.features(), nil
}

// regroup ranks g's labels and lays out its label-run adjacency (after
// Mhedhbi & Salihoglu's label-partitioned adjacency lists). It is extraction
// scratch only: the stored graph's CSR neighbour order, and with it every
// matcher's embedding order, is untouched. Taking the vertices in (label, ID)
// order and appending each to its neighbours' lists fills every list in that
// order with no sort.
func (e *extractor) regroup(g *graph.Graph) {
	n := g.N()
	e.off, e.vrank = resized(e.off, n+1), resized(e.vrank, n)
	e.off[0] = 0
	for v := 0; v < n; v++ {
		e.off[v+1] = e.off[v] + int32(g.Degree(v))
	}
	e.adj, e.fill = resized(e.adj, int(e.off[n])), append(e.fill[:0], e.off[:n]...)
	for _, l := range g.LabelValues() {
		rank, _ := slices.BinarySearch(e.alphabet, l)
		for _, u := range g.VerticesWithLabel(l) {
			e.vrank[u] = graph.Label(rank)
			for _, v := range g.Neighbors(int(u)) {
				e.adj[e.fill[v]] = u
				e.fill[v]++
			}
		}
	}
	e.runs, e.runOff = e.runs[:0], append(e.runOff[:0], 0)
	for v := 0; v < n; v++ {
		for i := e.off[v]; i < e.off[v+1]; i++ {
			if r := e.vrank[e.adj[i]]; i == e.off[v] || r != e.runs[len(e.runs)-1].rank {
				e.runs = append(e.runs, labelRun{rank: r})
			}
			e.runs[len(e.runs)-1].end = i + 1
		}
		e.runOff = append(e.runOff, int32(len(e.runs)))
	}
}

// twoHop sums, for every run R and every label b its members neighbour,
// S(R, b) = Σ_{u∈R} |N(u) ∩ L_b|: the 2-edge extensions through R of any
// path ending at R's vertex, before lastTwo takes out those that are not
// simple. A run's labels come in the order its members first meet them.
func (e *extractor) twoHop() {
	if len(e.sub) < len(e.alphabet) {
		e.sub = make([]int32, len(e.alphabet))
	}
	e.two = e.two[:0]
	from := int32(0) // the runs tile adj
	for i := range e.runs {
		r := &e.runs[i]
		start := len(e.two)
		for _, u := range e.adj[from:r.end] {
			at := e.off[u]
			for _, q := range e.runs[e.runOff[u]:e.runOff[u+1]] {
				if e.sub[q.rank] == 0 {
					e.two = append(e.two, rankCount{rank: q.rank})
				}
				e.sub[q.rank] += q.end - at
				at = q.end
			}
		}
		for j := start; j < len(e.two); j++ {
			t := &e.two[j]
			t.n, e.sub[t.rank] = e.sub[t.rank], 0
		}
		from, r.twoEnd = r.end, int32(len(e.two))
	}
}

// child returns the slot of seq, the child of its prefix's slot parent,
// making it on first use.
func (e *extractor) child(parent int32, seq []graph.Label) int32 {
	var s int32
	if t, rank := e.trie, seq[len(seq)-1]; t.width > 0 {
		s = t.rowChild(parent, rank)
	} else {
		s = t.Child(parent, rank)
	}
	if int(s) == len(e.state) {
		e.state = appendDoubling(e.state, slotState{oriented: Oriented(seq)})
	}
	return s
}

// mirror returns the slot of pranks[:n] read backwards, where s is the slot
// of pranks[:n], making it and its prefixes on first use; s keeps the answer.
func (e *extractor) mirror(s int32, n int) int32 {
	if len(e.mirrors) <= int(s) {
		e.mirrors = append(e.mirrors, make([]int32, len(e.state)-len(e.mirrors))...)
	}
	if m := e.mirrors[s]; m != 0 {
		return m
	}
	e.rev = append(e.rev[:0], e.pranks[:n]...)
	slices.Reverse(e.rev)
	m := int32(0)
	for i := 1; i <= n; i++ {
		m = e.child(m, e.rev[:i])
	}
	e.mirrors[s] = m
	return m
}

// touch returns slot s's state for a count or a location, listing s among
// the graph's touched slots on its first.
func (e *extractor) touch(s int32) *slotState {
	st := &e.state[s]
	if st.count == 0 && st.locRef == 0 {
		e.touched = append(e.touched, s)
	}
	return st
}

// poll counts paths towards the next context check and reports whether the
// walk goes on: false once ctx, polled every extractCancelCheckEvery paths,
// is cancelled.
func (e *extractor) poll(paths int32) bool {
	if e.sinceCheck += int(paths); e.sinceCheck >= extractCancelCheckEvery {
		e.sinceCheck = 0
		return e.ctx.Err() == nil
	}
	return true
}

// orientedEnd reports whether pranks[:n-1] extended by b is an oriented
// spelling: when b is the larger end, or an equal one around an oriented
// inner segment.
func (e *extractor) orientedEnd(b graph.Label, n int) bool {
	return b > e.pranks[0] || b == e.pranks[0] && Oriented(e.pranks[1:n-1])
}

// descend extends path[:depth+1], whose sequence has slot slot, by every
// neighbour of its last vertex that is off it, one label run — one child slot
// — at a time, and reports whether the walk goes on. At depth split it counts
// the last two levels at once instead (lastTwo). At full length a run that
// spells its paths backwards is skipped on its label alone, so no slot is
// made for a mirror spelling of full length.
func (e *extractor) descend(slot int32, depth int) bool {
	if depth == e.split {
		return e.lastTwo(slot, depth)
	}
	v := e.path[depth]
	e.onPath[v] = 1
	nbrs := e.adj[e.off[v]:e.off[v+1]]
	if depth < e.split {
		for _, u := range nbrs {
			e.near[u] |= 1 << depth
		}
	}
	leaf := depth+1 == e.maxLen
	from := e.off[v]
	for _, r := range e.runs[e.runOff[v]:e.runOff[v+1]] {
		members := e.adj[from:r.end]
		from = r.end
		if leaf && !e.orientedEnd(r.rank, depth+2) {
			continue // the walk from the paths' other ends counts and locates them
		}
		k := int32(len(members))
		for _, u := range members {
			k -= int32(e.onPath[u])
		}
		if k == 0 {
			continue // probing would make a slot that counts nothing
		}
		e.pranks[depth+1] = r.rank
		child := e.child(slot, e.pranks[:depth+2])
		// A mirror spelling stepped through is counted too and dropped in
		// features().
		st := e.touch(child)
		st.count += k
		if e.words > 0 && st.oriented {
			e.locate(st, e.path[:depth+1], members)
		}
		if !e.poll(k) {
			return false
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
	if depth < e.split {
		for _, u := range nbrs {
			e.near[u] &^= 1 << depth
		}
	}
	e.onPath[v] = 0
	return true
}

// lastTwo counts, at a node P = path[:depth+1] of depth split whose last
// vertex is v, the paths one and two edges longer, a run R (label a) of v at
// a time. The longer ones it counts in aggregate, from S(R, b) (twoHop) for
// each label b, less the extensions that are not simple paths:
//
//	count(P, a, b) = S(R, b) − Σ_{x∈R∩P} |N(x)∩L_b| − Σ_{x∈P, l(x)=b} |N(x)∩R∖P|
//
// where the last sum is one pass over R's members, reading the path
// positions each neighbours from near, v's own being every member's. A mirror
// spelling's count is left to the walk from the path's other end. With
// locations, P goes into the location set of its full-length feature under
// either spelling: every occurrence is met from both of its ends, and the two
// prefixes cover all its vertices once a path has three edges or more.
func (e *extractor) lastTwo(slot int32, depth int) bool {
	v := e.path[depth]
	e.onPath[v] = 1
	prefix := e.path[:depth+1]
	from, two := e.off[v], int32(0)
	if ri := e.runOff[v]; ri > 0 {
		two = e.runs[ri-1].twoEnd
	}
	for _, r := range e.runs[e.runOff[v]:e.runOff[v+1]] {
		members, sums := e.adj[from:r.end], e.two[two:r.twoEnd]
		from, two = r.end, r.twoEnd
		k := int32(len(members))
		for _, u := range members {
			k -= int32(e.onPath[u])
		}
		if k == 0 {
			continue
		}
		for _, u := range members {
			if e.onPath[u] == 0 {
				for near := e.near[u]; near != 0; near &= near - 1 {
					e.sub[e.pranks[bits.TrailingZeros64(near)]]++ // u's neighbour on the path
				}
				continue
			}
			at := e.off[u]
			for _, q := range e.runs[e.runOff[u]:e.runOff[u+1]] {
				e.sub[q.rank] += q.end - at // u ∈ R∩P: no neighbour extends P through it
				at = q.end
			}
		}
		e.sub[e.pranks[depth]] += k // every member neighbours v
		e.pranks[depth+1] = r.rank
		mid := e.child(slot, e.pranks[:depth+2])
		st := e.touch(mid)
		st.count += k
		if e.words > 0 && st.oriented {
			e.locate(st, prefix, members)
		}
		paths := k
		for _, t := range sums {
			c := t.n - e.sub[t.rank]
			e.sub[t.rank] = 0
			oriented := e.orientedEnd(t.rank, depth+3)
			if c == 0 || !oriented && e.words == 0 {
				continue
			}
			paths += c
			e.pranks[depth+2] = t.rank
			leaf := e.child(mid, e.pranks[:depth+3])
			if !oriented {
				e.locate(e.touch(e.mirror(leaf, depth+3)), prefix, nil)
				continue
			}
			st := e.touch(leaf)
			st.count += c
			if e.words > 0 {
				e.locate(st, prefix, nil)
			}
		}
		if !e.poll(paths) {
			return false
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
func (e *extractor) locate(st *slotState, prefix, members []int32) {
	ref := st.locRef
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
				st.locRef = ref
			}
			e.lists[-ref-1] = append(append(slices.Grow(list, len(prefix)+len(members)), prefix...), members...)
			return
		}
		if ref < 0 {
			e.lists[-ref-1] = list[:0]
		}
		e.rows = append(e.rows, make([]uint64, e.words)...)
		ref = int32(len(e.rows) / e.words)
		st.locRef = ref
	}
	row := e.row(ref)
	setBits(row, list) // only when spilling
	setBits(row, prefix)
	setBits(row, members)
}

func (e *extractor) row(ref int32) []uint64 {
	return e.rows[int(ref-1)*e.words : int(ref)*e.words]
}

// features writes out the graph's oriented slots in the order it first
// counted them, sized exactly. A slot's scratch form records how its
// occurrences happened to arrive — a row may have spilled on duplicates and
// hold few vertices — so the stored form is chosen here, from the set itself.
func (e *extractor) features() *Features {
	nFeats := 0
	for _, s := range e.touched {
		if e.state[s].oriented {
			nFeats++
		}
	}
	buf := make([]int32, 2*nFeats)
	f := &Features{trie: e.trie, slots: buf[:0:nFeats], counts: buf[nFeats:nFeats], words: e.words}
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
	for _, s := range e.touched {
		st := e.state[s]
		if !st.oriented {
			continue
		}
		f.slots = append(f.slots, s)
		f.counts = append(f.counts, st.count)
		if withLocations {
			if st.locRef < 0 {
				f.locRefs = append(f.locRefs, f.locs.AppendList(e.lists[-st.locRef-1], e.words))
			} else {
				f.locRefs = append(f.locRefs, f.locs.AppendRow(e.row(st.locRef)))
			}
		}
	}
	return f
}

// ExtractDatasetFeatures extracts the path features of every dataset graph
// across the pool's workers (nil selects the shared default pool) and returns
// them positionally: out[i] holds graph i's features. Which worker took which
// graph decides only the features' slot numbers, never what they spell, so
// folds that read them by sequence (index.FoldPath) are deterministic
// regardless of worker count — only the wall-clock time changes. Graphs are
// handed out largest first (by edge count, ties by position), so that a
// straggler starts early instead of ending the extraction alone. Cancelling
// ctx aborts extraction (including mid-graph, as ExtractFeaturesContext does)
// and returns the context's error.
//
// Every extractor reads labels as ranks in the dataset's alphabet, which
// covers whichever graphs it takes.
//
// The call owns the extraction scratch: a task takes the extractor a finished
// task put back, or makes one, so a worker regrows nothing from graph to
// graph and its graphs share its trie, and all of the scratch but the tries
// the features name is garbage when the call returns — a package-level
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
	order := make([]int, len(ds))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ds[b].M(), ds[a].M()) })
	var alphabet []graph.Label
	for _, g := range ds {
		alphabet = append(alphabet, g.LabelValues()...)
	}
	slices.Sort(alphabet)
	alphabet = slices.Compact(alphabet)
	free := make(chan *extractor, p.Workers()) // one per task that can run at once
	grp := p.NewGroup(ctx)
	for _, i := range order {
		grp.Go(func(gctx context.Context) error {
			var e *extractor
			select {
			case e = <-free:
			default:
				e = newExtractor(alphabet)
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
	// The folds read the tries' slots only, so the tables can go before
	// they run.
	for len(free) > 0 {
		(<-free).trie.seal()
	}
	return out, nil
}
