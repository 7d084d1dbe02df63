package index

// The flat path-feature table, one per shard of the index (Sharded). It
// stores every extracted path feature — an undirected label path under its
// oriented spelling (ftv.Oriented) — flat, sorted by label sequence, with its
// packed posting list and, for a table built under "grapes", a reference to
// each posting's location set. It names no verifier: the names differ only in
// the verifier a Sharded view over the tables selects (verify.go): the flat
// path index ("ftv", FTV) and GGSX ("ggsx") run VF2 against the whole stored
// graph, and Grapes ("grapes") runs it within the components the location
// sets leave.
//
// GGSX (Bonnici et al., §3.1.1 of the paper) indexes all ≤maxLen paths, as
// this table does, in a suffix tree, keeps no locations and verifies with VF2
// against the whole graph: its filtering and its verification are the flat
// index's, and only its storage layout differed, which one table removes. The
// name stays because the paper's portfolio names it, and so do the harness's
// Table 10 configurations and snapshot files that hold a "ggsx" section.
//
// The label sequences live in a sequence directory (PathDirectory): every
// sequence in canonical order, concatenated into one label slab, with one
// end per sequence. A table keeps no labels of its own, only a presence
// bitmap over the directory's positions marking the sequences it indexes
// (with a running count per 64-bit word, so that a rank is one popcount),
// one 8-byte entry per indexed sequence holding no pointer, in directory
// order — entry i belongs to the i-th set bit — and every packed posting list
// back to back. A sequence's list runs from where the previous entry's list
// ends to where its own does, and its postings from the previous entry's
// running posting count to its own; a table with locations keeps one
// reference per posting, in posting order, so the same two counts delimit a
// list's references. A lookup is a binary search of the directory, a bit test
// and a rank; a table is a handful of allocations whatever its size, with
// nothing for the collector to trace, and each slab is a form a file could
// hold as it is.
//
// A directory is immutable, so tables can share one. The shards of one build
// or store index nearly the same sequences, so the build and the restore give
// them one directory, the union of theirs
// (ShareDirectory); an insert keeps its index's directory unless the graph
// brings a sequence the directory lacks, and a rebuilt shard adopts its
// predecessor's when that holds every sequence it indexes (AdoptDirectory).

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// Path is the flat path-feature table of one shard: its features, their
// postings and, under "grapes", their locations. It is not an index: a
// Sharded view filters it and verifies over it with any name's verifier.
// Safe for concurrent use once built.
type Path struct {
	kind       string
	ds         []*graph.Graph
	maxPathLen int
	// The features in canonical (lexicographic label sequence) order — the
	// order the snapshot export promises, so exporting is a walk over the set
	// bits. dir holds the sequences, has marks the ones indexed here, and
	// entries and postings are theirs in directory order. Immutable, the
	// directory shared with the other shards: WithGraph writes new slabs,
	// keeping the directory unless the graph brings a sequence it lacks and
	// the bitmap unless the graph brings a sequence new to this index.
	dir      *PathDirectory
	has      bitmap
	entries  []pathEntry
	postings []byte
	// refs holds, for a table that keeps locations, each posting's set in
	// locs, in posting order; nil for the others.
	refs  []ftv.LocRef
	locs  ftv.LocSets
	stats Stats
	// last is the located verifier's plan of the last query (verify.go).
	last atomic.Pointer[queryPlan]
}

// pathEntry is one indexed sequence: where its list ends in the posting slab,
// and how many postings the table holds up to the end of its list. A posting
// takes one byte at least, so postEnd ≤ listEnd and a count of postings fits
// wherever the slab's offsets do. The list's base for a further posting
// (PostingList.next) is not kept: only an insert needs it, and reads it off
// the list's last block.
type pathEntry struct {
	listEnd, postEnd uint32
}

// slabOffset is a slab length as an entry's offset; a slab longer than an
// offset can address panics instead of wrapping.
func slabOffset(n int) uint32 {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("index: the flat path index (%s) holds %d labels or posting bytes, past the 2^32 an offset can address; shard the dataset", KindPath, n))
	}
	return uint32(n)
}

// PathDirectory is a sequence directory: label sequences in canonical order,
// held as one label slab and one end per sequence. It is immutable, so any
// number of tables can look their features up in one.
type PathDirectory struct {
	labels []graph.Label
	ends   []uint32
}

// Len is the number of sequences in the directory.
func (d *PathDirectory) Len() int { return len(d.ends) }

// seq returns sequence i. Callers must not modify it.
func (d *PathDirectory) seq(i int) []graph.Label {
	var from uint32
	if i > 0 {
		from = d.ends[i-1]
	}
	end := d.ends[i]
	return d.labels[from:end:end]
}

// find returns the position of a label sequence in the directory: where it
// is, or where it would go.
func (d *PathDirectory) find(labels []graph.Label) (int, bool) {
	return d.search(labels, 0, len(d.ends))
}

// findFrom is find for a sequence that goes at or after position from, as an
// insert's features, taken in canonical order, do one after another: the
// step from there doubles until it passes the sequence, so a sequence k
// positions on costs about 2·log₂ k comparisons rather than log₂ of the
// directory.
func (d *PathDirectory) findFrom(from int, labels []graph.Label) (int, bool) {
	lo, hi := from, from
	for step := 1; hi < len(d.ends) && CompareLabelSeqs(d.seq(hi), labels) < 0; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	return d.search(labels, lo, min(hi, len(d.ends)))
}

// search is find over the positions [lo, hi), where the sequence goes: every
// one before lo sorts before it, and the one at hi, if any, not.
func (d *PathDirectory) search(labels []graph.Label, lo, hi int) (int, bool) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if CompareLabelSeqs(d.seq(mid), labels) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.ends) && CompareLabelSeqs(d.seq(lo), labels) == 0
}

// push appends a sequence past every one the directory holds.
func (d *PathDirectory) push(labels []graph.Label) {
	d.labels = append(d.labels, labels...)
	d.ends = append(d.ends, slabOffset(len(d.labels)))
}

// pushRun appends o's sequences [from, to), their labels in one copy.
func (d *PathDirectory) pushRun(o *PathDirectory, from, to int) {
	if from == to {
		return
	}
	var start uint32
	if from > 0 {
		start = o.ends[from-1]
	}
	shift := len(d.labels) - int(start)
	d.labels = append(d.labels, o.labels[start:o.ends[to-1]]...)
	for _, end := range o.ends[from:to] {
		d.ends = append(d.ends, slabOffset(int(end)+shift))
	}
}

// with returns a new directory holding d's sequences and the features of f
// that d lacks: feature order[k] for each place[k] < 0, going before d's
// sequence ^place[k]. seqs and labels count them and their labels.
func (d *PathDirectory) with(f *ftv.Features, order []int32, place []int, seqs, labels int) *PathDirectory {
	nd := &PathDirectory{
		labels: make([]graph.Label, 0, len(d.labels)+labels),
		ends:   make([]uint32, 0, d.Len()+seqs),
	}
	done := 0 // d's sequences written so far
	for k, p := range place {
		if p >= 0 {
			continue
		}
		nd.pushRun(d, done, ^p)
		nd.labels = f.AppendLabels(nd.labels, int(order[k]))
		nd.ends = append(nd.ends, slabOffset(len(nd.labels)))
		done = ^p
	}
	nd.pushRun(d, done, d.Len())
	return nd
}

// bitmap is a table's presence bitmap over its directory's positions, 64 a
// word, each word with the number of bits set in the words before it.
type bitmap []bitmapWord

type bitmapWord struct {
	bits   uint64
	before uint32
}

// newBitmap returns a bitmap over n positions with none set. Its words reach
// past position n, so that rank(n) is read like any other.
func newBitmap(n int) bitmap { return make(bitmap, n/64+1) }

// fullBitmap returns a counted bitmap over n positions with all of them set.
func fullBitmap(n int) bitmap {
	b := newBitmap(n)
	for w := range n / 64 {
		b[w].bits = math.MaxUint64
	}
	b[n/64].bits = 1<<(n%64) - 1
	b.count()
	return b
}

func (b bitmap) set(p int)       { b[p>>6].bits |= 1 << (p & 63) }
func (b bitmap) test(p int) bool { return b[p>>6].bits>>(p&63)&1 != 0 }

// count writes every word's running count; a bitmap is read by rank only
// once its bits are all set and counted.
func (b bitmap) count() {
	n := 0
	for w := range b {
		b[w].before = uint32(n)
		n += bits.OnesCount64(b[w].bits)
	}
}

// rank is the number of set positions before p, for p up to the number of
// positions.
func (b bitmap) rank(p int) int {
	w := b[p>>6]
	return int(w.before) + bits.OnesCount64(w.bits&(1<<(p&63)-1))
}

// ones yields the set positions in ascending order.
func (b bitmap) ones() iter.Seq[int] {
	return func(yield func(int) bool) {
		for w, word := range b {
			for x := word.bits; x != 0; x &= x - 1 {
				if !yield(w<<6 + bits.TrailingZeros64(x)) {
					return
				}
			}
		}
	}
}

// newPath returns an empty table of kind over ds.
func newPath(kind string, ds []*graph.Graph, maxPathLen int) *Path {
	return &Path{kind: kind, ds: ds, maxPathLen: maxPathLen}
}

// FoldPath folds the table of kind over ds from its graphs' extracted
// features, with locations under "grapes".
// The first pass interns every (graph, feature) pair to a dense slot of the
// fold's own ftv.LabelTrie and measures the posting lists. A feature arrives
// as a slot of the trie its extraction worker walked, which the cell's other
// graphs from that worker share, so each slot of each such trie is interned
// once, parents first, at one probe, and every posting after that is a lookup
// in an array. The fold trie's canonical walk then lays out the directory, the
// entries and the posting slab; the second pass fills the lists graph by
// graph, which leaves them ascending with no sort and no spare byte. A table
// that keeps locations has each graph's location slab appended to its own
// as it is, so a set keeps the form the extraction gave it, and each posting's
// reference written beside it. The table holds every sequence of its own
// directory; a build then shares one directory across its shards
// (ShareDirectory). (Measured on the benchmark's 300 × 50-vertex, 8-label
// dataset, 1.59 M postings over 19 044 sequences: interning every label of
// every posting, about five probes a posting, was 13 % of an ftv_selective
// set-up's CPU; interning the tries' slots is 2 % of an ftv build at K = 2,
// and the fold as a whole under a fifth.)
func FoldPath(kind string, ds []*graph.Graph, ex Extraction, opts Options) *Path {
	start := time.Now()
	var (
		in      = interner{seqs: ftv.NewLabelTrie()}
		seqs    = in.seqs
		sizes   []listSize // per trie slot: the list of its sequence
		slotOf  []int32    // per (graph, feature) pair, in fold order
		nFeats  int
		nLabels int
		nBytes  int
	)
	for g, f := range ex.Features {
		t := f.Trie()
		m := in.slotsOf(t)
		for i := 0; i < f.Len(); i++ {
			s := m[f.Slot(i)]
			if s == 0 {
				s = in.intern(t, m, f.Slot(i))
			}
			for len(sizes) < seqs.Len() {
				sizes = append(sizes, listSize{})
			}
			if sizes[s].n == 0 {
				nFeats++
				nLabels += seqs.Depth(s)
			}
			sizes[s].add(int32(g), f.Count(i))
			slotOf = append(slotOf, s)
		}
	}
	for _, z := range sizes {
		nBytes += z.bytes()
	}
	x := newPath(kind, ds, opts.MaxPathLen)
	x.dir = &PathDirectory{
		labels: make([]graph.Label, 0, nLabels),
		ends:   make([]uint32, 0, nFeats),
	}
	x.has = fullBitmap(nFeats)
	x.entries = make([]pathEntry, 0, nFeats)
	x.postings = make([]byte, nBytes)
	at := make([]int32, len(sizes))      // trie slot → feature
	lists := make([]PostingList, nFeats) // the fill's write cursors into postings
	rest := x.postings
	seqs.Walk(func(s int32, labels []graph.Label) {
		if sizes[s].n == 0 {
			return // a proper prefix of features, not one itself
		}
		at[s] = int32(len(x.entries))
		x.dir.push(labels)
		lists[at[s]] = carve(&rest, sizes[s])
		x.entries = append(x.entries, pathEntry{
			listEnd: slabOffset(nBytes - len(rest)),
			postEnd: x.postingCount() + uint32(sizes[s].n),
		})
	})
	located := kind == KindGrapes
	if located {
		x.refs = make([]ftv.LocRef, len(slotOf))
		rowWords, listIDs := 0, 0
		for _, f := range ex.Features {
			r, l := f.LocSets().Size()
			rowWords, listIDs = rowWords+r, listIDs+l
		}
		x.locs.Reserve(rowWords, listIDs)
	}
	next := 0
	for g, f := range ex.Features {
		var rowBase, listBase int32
		if located {
			rowBase, listBase = x.locs.AppendAll(f.LocSets())
		}
		for i := 0; i < f.Len(); i++ {
			e := at[slotOf[next]]
			if located {
				_, first := x.start(int(e))
				x.refs[int(first)+lists[e].Len()] = f.LocRef(i).Shifted(rowBase, listBase)
			}
			lists[e].push(int32(g), f.Count(i))
			next++
		}
	}
	x.finish(ex.Time+time.Since(start), opts.Pool)
	return x
}

// interner maps the slots of the extraction's tries to a fold's trie, seqs.
type interner struct {
	seqs  *ftv.LabelTrie
	tries []*ftv.LabelTrie
	slots [][]int32 // per trie: slot → seqs' slot, 0 until interned
	up    []int32
}

// slotsOf returns t's slot map, made on t's first use.
func (in *interner) slotsOf(t *ftv.LabelTrie) []int32 {
	if k := slices.Index(in.tries, t); k >= 0 {
		return in.slots[k]
	}
	in.tries = append(in.tries, t)
	in.slots = append(in.slots, make([]int32, t.Len()))
	return in.slots[len(in.slots)-1]
}

// intern maps t's slot s, and the prefixes of its sequence not yet mapped, to
// seqs, with m t's slot map, and returns s's slot there.
func (in *interner) intern(t *ftv.LabelTrie, m []int32, s int32) int32 {
	up := in.up[:0]
	for ; s > 0 && m[s] == 0; s = t.Parent(s) {
		up = append(up, s)
	}
	mapped := m[s] // the empty sequence's slot is 0 in both
	for k := len(up) - 1; k >= 0; k-- {
		mapped = in.seqs.Child(mapped, t.Label(up[k]))
		m[up[k]] = mapped
	}
	in.up = up
	return mapped
}

// finish sets the statistics of a built or restored table.
func (x *Path) finish(buildTime time.Duration, pool *exec.Pool) {
	x.stats = Stats{
		Kind:         x.kind,
		Graphs:       len(x.ds),
		MaxPathLen:   x.maxPathLen,
		Features:     len(x.entries),
		BuildTime:    buildTime,
		BuildWorkers: poolWorkers(pool),
		Postings:     int64(x.postingCount()),
		PostingBytes: int64(len(x.postings)),
	}
	if x.refs != nil {
		x.stats.LocationBytes = x.locs.Bytes()
		x.stats.LocationRows = x.locs.Rows()
		x.stats.LocationLists = x.locs.Lists()
	}
}

// poolWorkers reports a build pool's parallelism for Stats.BuildWorkers; 0
// marks the shared default pool (whose size is the CPU count).
func poolWorkers(p *exec.Pool) int {
	if p == nil {
		return 0
	}
	return p.Workers()
}

// Dataset returns the graphs the table indexes, in local ID order.
func (x *Path) Dataset() []*graph.Graph { return x.ds }

// MaxPathLen returns the indexed path length.
func (x *Path) MaxPathLen() int { return x.maxPathLen }

// Directory returns the sequence directory the table looks its features up
// in, which the other shards' tables may share.
func (x *Path) Directory() *PathDirectory { return x.dir }

// LocSets returns the location sets Located's references name; empty for a
// table without locations.
func (x *Path) LocSets() *ftv.LocSets { return &x.locs }

// Stats reports the table's build provenance and shape. Name is empty: the
// Sharded view over the table names its verifier.
func (x *Path) Stats() Stats { return x.stats }

// postingCount is the number of postings the table holds.
func (x *Path) postingCount() uint32 {
	if len(x.entries) == 0 {
		return 0
	}
	return x.entries[len(x.entries)-1].postEnd
}

// start returns where entry i's list starts in the posting slab, and its
// first posting's position among the table's.
func (x *Path) start(i int) (listFrom, postFrom uint32) {
	if i == 0 {
		return 0, 0
	}
	e := x.entries[i-1]
	return e.listEnd, e.postEnd
}

// listOf returns entry i's posting list, a view of the slab without its base
// for a further posting (PostingList.tail).
func (x *Path) listOf(i int) PostingList {
	from, first := x.start(i)
	e := x.entries[i]
	return PostingList{data: x.postings[from:e.listEnd:e.listEnd], n: int32(e.postEnd - first)}
}

// refsOf returns the location references of entry i's postings, a view of the
// reference slab; nil for a table without locations.
func (x *Path) refsOf(i int) []ftv.LocRef {
	if x.refs == nil {
		return nil
	}
	_, first := x.start(i)
	end := x.entries[i].postEnd
	return x.refs[first:end:end]
}

// Located returns the posting list of a label sequence and, for a table with
// locations, the references of its postings' sets in LocSets, by a posting's
// ordinal in the list; the list is empty when the table does not index the
// sequence.
func (x *Path) Located(labels []graph.Label) (PostingList, []ftv.LocRef) {
	p, ok := x.dir.find(labels)
	if !ok || !x.has.test(p) {
		return PostingList{}, nil
	}
	i := x.has.rank(p)
	return x.listOf(i), x.refsOf(i)
}

func (x *Path) lookup(labels []graph.Label) PostingList {
	l, _ := x.Located(labels)
	return l
}

// bitmapOver returns a new bitmap over dir marking the sequences x indexes,
// not yet counted, and false when dir lacks one of them.
func (x *Path) bitmapOver(dir *PathDirectory) (bitmap, bool) {
	b := newBitmap(dir.Len())
	u := 0
	for p := range x.has.ones() {
		s := x.dir.seq(p)
		for ; u < dir.Len(); u++ {
			if c := CompareLabelSeqs(dir.seq(u), s); c == 0 {
				break
			} else if c > 0 {
				return nil, false
			}
		}
		if u == dir.Len() {
			return nil, false
		}
		b.set(u)
		u++
	}
	return b, true
}

// adopt rebinds x to dir when dir holds every sequence x indexes, and reports
// whether x now looks its features up there. It mutates x, so it is only for
// a table no query can see yet.
func (x *Path) adopt(dir *PathDirectory) bool {
	if dir == x.dir || slices.Equal(dir.ends, x.dir.ends) && slices.Equal(dir.labels, x.dir.labels) {
		x.dir = dir // the same sequences: the bitmap stands
		return true
	}
	b, ok := x.bitmapOver(dir)
	if !ok {
		return false
	}
	b.count()
	x.dir, x.has = dir, b
	return true
}

// ShareDirectory gives the tables of one build or store — one per shard — one
// sequence directory, the union of theirs. Each keeps its entries, postings
// and references under a bitmap over the shared directory, and the
// directories they held become garbage. It rebinds the tables in place, so it
// runs only where no query can see them yet: BuildTables calls it once over
// the tables it builds, and live.Restore once over the tables it restores.
// Fewer than two tables have nothing to share.
func ShareDirectory(xs []*Path) {
	if len(xs) < 2 {
		return
	}
	// The cells of one dataset mostly index the same sequences, so the largest
	// directory is often the union already; a union is written only when some
	// cell holds a sequence the largest lacks.
	dir := xs[0].dir
	for _, x := range xs[1:] {
		if x.dir.Len() > dir.Len() {
			dir = x.dir
		}
	}
	for _, x := range xs {
		if !x.adopt(dir) {
			dir = unionDirectory(xs)
			break
		}
	}
	for _, x := range xs {
		x.adopt(dir) // the union holds every sequence of every table
	}
}

// AdoptDirectory rebinds x, a table built to replace from and not yet
// visible to any query, to from's directory when that holds every sequence x
// indexes — always the case when x indexes a subset of from's graphs, as
// after a compaction — so the shard keeps sharing its store's directory.
// Otherwise x keeps its own.
func AdoptDirectory(x, from *Path) { x.adopt(from.dir) }

// unionDirectory returns a new directory holding every sequence of the
// tables' directories.
func unionDirectory(xs []*Path) *PathDirectory {
	var dirs []*PathDirectory
	for _, x := range xs {
		if !slices.Contains(dirs, x.dir) {
			dirs = append(dirs, x.dir)
		}
	}
	seqs, labels := 0, 0
	mergeDirectories(dirs, func(s []graph.Label) {
		seqs++
		labels += len(s)
	})
	u := &PathDirectory{labels: make([]graph.Label, 0, labels), ends: make([]uint32, 0, seqs)}
	mergeDirectories(dirs, u.push)
	return u
}

// mergeDirectories visits every sequence of dirs once, in canonical order.
func mergeDirectories(dirs []*PathDirectory, visit func([]graph.Label)) {
	at := make([]int, len(dirs))
	for {
		var low []graph.Label
		found := false
		for k, d := range dirs {
			if at[k] < d.Len() && (!found || CompareLabelSeqs(d.seq(at[k]), low) < 0) {
				low, found = d.seq(at[k]), true
			}
		}
		if !found {
			return
		}
		for k, d := range dirs {
			if at[k] < d.Len() && CompareLabelSeqs(d.seq(at[k]), low) == 0 {
				at[k]++
			}
		}
		visit(low)
	}
}

// cursor opens the table's filter scan as a pull cursor: it yields, in
// ascending local ID order, the graphs of the table that contain each of the
// query's features, extracted at the table's path length, at least as often
// as the query does.
func (x *Path) cursor(feats []ftv.QueryFeature) featureCursor {
	return newFeatureCursor(len(x.ds), feats, x.lookup)
}

// WithGraph derives a new table over the old dataset plus one appended graph
// without re-extracting the features of the existing graphs: a copy-on-write
// append. Only the new
// graph's features are extracted, and a walk of the trie their extraction
// grew puts them in canonical order. A first pass places each in the directory
// by a search from the previous one's place (findFrom) and sizes the result,
// reading the base of each list it will extend off the list's last block; one merge pass then writes the new
// entries and posting slab, copying each run of untouched lists whole and
// each touched list with the new posting appended — the appended graph has
// the largest ID, so lists stay ascending. The directory is kept whenever it
// holds every sequence of the graph, sequences new to this index included:
// those only set a bit. A sequence the directory lacks makes a superset
// directory for the new index alone, so an insert never rebinds the other
// shards. The bitmap is rewritten only when a sequence is new to
// the index. The receiver is never mutated: queries racing against the old
// index keep a consistent view, so a dataset store can swap the new table in.
// The work is a copy of the slabs, far below the path enumeration a rebuild
// pays, and the allocations are a handful whatever the graph touches. A table
// with locations cannot insert, since the extraction here keeps none: a store
// rebuilds its shard instead.
func (x *Path) WithGraph(ctx context.Context, g *graph.Graph) (*Path, error) {
	if x.refs != nil {
		return nil, fmt.Errorf("index: the %s table keeps locations, which an insert does not extract", x.kind)
	}
	start := time.Now()
	f, err := ftv.ExtractFeaturesContext(ctx, g, x.maxPathLen, false)
	if err != nil {
		return nil, err
	}
	id := int32(len(x.ds))
	// order is f's features in canonical order, and place[k] is where feature
	// order[k] is in the directory: p when it is the directory's sequence p,
	// ^p when the directory lacks it and it goes before sequence p. base[k] is
	// the base for a further posting of the list feature order[k] extends
	// (PostingList.tail), read once; one allocation holds both.
	order := f.Canonical()
	buf := make([]int, 2*len(order))
	place, base := buf[:len(order):len(order)], buf[len(order):]
	absent, absentLabels, fresh, listBytes := 0, 0, 0, len(x.postings)
	var seq [ftv.DefaultMaxPathLen + 1]graph.Label
	labels := seq[:0]
	from := 0
	for k, i := range order {
		labels = f.AppendLabels(labels[:0], int(i))
		p, ok := x.dir.findFrom(from, labels)
		from = p
		var z listSize
		switch {
		case !ok:
			p = ^p
			absent++
			absentLabels += len(labels)
			fresh++
		case x.has.test(p):
			l := x.listOf(x.has.rank(p))
			l.next = l.tail()
			z, base[k] = l.size(), int(l.next)
			listBytes -= l.Bytes()
		default:
			fresh++
		}
		z.add(id, f.Count(int(i)))
		listBytes += z.bytes()
		place[k] = p
	}
	ds := make([]*graph.Graph, len(x.ds)+1)
	copy(ds, x.ds)
	ds[len(x.ds)] = g
	nx := &Path{
		kind:       x.kind,
		ds:         ds,
		maxPathLen: x.maxPathLen,
		dir:        x.dir,
		has:        x.has,
		entries:    make([]pathEntry, 0, len(x.entries)+fresh),
		postings:   make([]byte, 0, listBytes),
	}
	if absent > 0 {
		nx.dir = x.dir.with(f, order, place, absent, absentLabels)
		nx.has, _ = x.bitmapOver(nx.dir) // a superset of x's directory
	} else if fresh > 0 {
		nx.has = slices.Clone(x.has)
	}
	if fresh > 0 {
		// Feature i sits in the new directory past the absent sequences
		// inserted before it.
		inserted := 0
		for _, p := range place {
			if p < 0 {
				p = ^p
				inserted++
				p += inserted - 1
			} else {
				p += inserted
			}
			nx.has.set(p)
		}
		nx.has.count()
	}
	done := 0 // the receiver's entries merged so far
	for k, p := range place {
		var l PostingList // a sequence new to the index has an empty list
		indexed := p >= 0 && x.has.test(p)
		if p < 0 {
			p = ^p
		}
		at := x.has.rank(p) // x's entry for the sequence, or where it would go
		nx.copyEntries(x, done, at)
		done = at
		if indexed {
			l, done = x.listOf(at), at+1
			l.next = int32(base[k])
		}
		nx.postings, l = l.appendWith(nx.postings, id, f.Count(int(order[k])))
		nx.entries = append(nx.entries, pathEntry{
			listEnd: slabOffset(len(nx.postings)),
			postEnd: nx.postingCount() + uint32(l.n),
		})
	}
	nx.copyEntries(x, done, len(x.entries))
	nx.stats = x.stats
	nx.stats.Graphs = len(nx.ds)
	nx.stats.Features = len(nx.entries)
	nx.stats.BuildTime = time.Since(start)
	nx.stats.Postings = int64(nx.postingCount())
	nx.stats.PostingBytes = int64(len(nx.postings))
	return nx, nil
}

// copyEntries appends o's entries [from, to) and their lists to x unchanged,
// the lists' run in one copy.
func (x *Path) copyEntries(o *Path, from, to int) {
	if from == to {
		return
	}
	listFrom, postFrom := o.start(from)
	listShift := len(x.postings) - int(listFrom)
	postShift := x.postingCount() - postFrom // the postings x gained before the run
	x.postings = append(x.postings, o.postings[listFrom:o.entries[to-1].listEnd]...)
	for _, e := range o.entries[from:to] {
		e.listEnd = slabOffset(int(e.listEnd) + listShift)
		e.postEnd += postShift
		x.entries = append(x.entries, e)
	}
}
