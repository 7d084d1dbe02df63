package index

// The path-based FTV baseline: the simplest member of the portfolio. It
// stores every extracted path feature — an undirected label path under its
// oriented spelling (ftv.Oriented) — flat, sorted by label sequence — no
// trie, no locations — and verifies candidates with VF2 against the whole
// stored graph. Its filtering power is identical to GGSX (both count all
// ≤maxLen paths); what differs is the storage layout and lookup cost, which
// is exactly the kind of constant-factor alternative the racing Engine
// exploits: on some queries the flat array's binary search over whole
// sequences beats the tries, on others the tries' shared prefixes win.
//
// The label sequences live in a sequence directory (PathDirectory): every
// sequence in canonical order, concatenated into one label slab, with one
// end per sequence. An index keeps no labels of its own, only a presence
// bitmap over the directory's positions marking the sequences it indexes
// (with a running count per 64-bit word, so that a rank is one popcount),
// one 12-byte entry per indexed sequence holding no pointer, in directory
// order — entry i belongs to the i-th set bit — and every packed posting list
// back to back. A sequence's list runs from where the previous entry's list
// ends to where its own does. A lookup is a binary search of the directory, a
// bit test and a rank; an index is a handful of allocations whatever its
// size, with nothing for the collector to trace, and each slab is a form a
// file could hold as it is.
//
// A directory is immutable, so indexes can share one. The K shards of one
// flat row — the per-shard sub-indexes of this kind in one build or store —
// index nearly the same sequences, so the build and the restore give them
// one directory, the union of theirs (ShareDirectory); an insert keeps its
// index's directory unless the graph brings a sequence the directory lacks,
// and a rebuilt shard adopts its predecessor's when that holds every
// sequence it indexes (AdoptDirectory).

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/vf2"
)

// KindPath is the registered kind of the flat path index.
const KindPath = "ftv"

func init() {
	Register(KindPath, func(ds []*graph.Graph, ex Extraction, opts Options) Index {
		return foldPath(ds, ex, opts)
	}, false)
}

// Path is the flat path-feature index. Safe for concurrent use once built.
type Path struct {
	ds         []*graph.Graph
	maxPathLen int
	// The features in canonical (lexicographic label sequence) order — the
	// order the snapshot export promises, so exporting is a walk over the set
	// bits. dir holds the sequences, has marks the ones indexed here, and
	// entries and postings are theirs in directory order. Immutable, the
	// directory shared with the rest of the row: WithGraph writes new slabs,
	// keeping the directory unless the graph brings a sequence it lacks and
	// the bitmap unless the graph brings a sequence new to this index.
	dir      *PathDirectory
	has      bitmap
	entries  []pathEntry
	postings []byte
	stats    Stats
}

// pathEntry is one indexed sequence: where its list ends in the posting slab,
// and the list's posting count and next base (PostingList.n, .next).
type pathEntry struct {
	listEnd uint32
	n, next int32
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
// number of flat indexes can look their features up in one.
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
	lo, hi := 0, len(d.ends)
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
// that d lacks: those with place[i] < 0, each going before d's sequence
// ^place[i]. seqs and labels count them and their labels.
func (d *PathDirectory) with(f *ftv.Features, place []int, seqs, labels int) *PathDirectory {
	nd := &PathDirectory{
		labels: make([]graph.Label, 0, len(d.labels)+labels),
		ends:   make([]uint32, 0, d.Len()+seqs),
	}
	done := 0 // d's sequences written so far
	for i, p := range place {
		if p >= 0 {
			continue
		}
		nd.pushRun(d, done, ^p)
		nd.push(f.Labels(i))
		done = ^p
	}
	nd.pushRun(d, done, d.Len())
	return nd
}

// bitmap is an index's presence bitmap over its directory's positions, 64 a
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

// BuildPath constructs the flat path index through the build pipeline —
// Build with the static type kept.
func BuildPath(ctx context.Context, ds []*graph.Graph, opts Options) (*Path, error) {
	x, err := Build(ctx, KindPath, ds, opts)
	if err != nil {
		return nil, err
	}
	return x.(*Path), nil
}

// foldPath is the flat index's fold, the BuildFunc registered under KindPath
// with the static type kept. The first pass interns every (graph, feature)
// pair to a dense slot — through ftv.LabelTrie, the extractor's own interner,
// at one probe per label — and measures the posting lists; the interner's
// canonical walk then lays out the directory, the entries and the posting
// slab; the second pass fills the lists graph by graph, which leaves them
// ascending with no sort and no spare byte. The index holds every sequence of
// its own directory; a grid then shares one directory across a row
// (ShareDirectory). (Measured on the benchmark's 300 × 50-vertex, 8-label
// dataset, 1.57 M postings at 2.0 bytes each: the fold is about a fifth of an
// ftv build's wall time on two cores, interning about half of the fold. The
// graphs' features arrive sorted, so a k-way merge would group them with no
// table at all, but at postings × log₂ graphs sequence comparisons it does
// more work than the five probes a posting costs here.)
func foldPath(ds []*graph.Graph, ex Extraction, opts Options) *Path {
	start := time.Now()
	var (
		seqs    = ftv.NewLabelTrie()
		sizes   []listSize // per trie slot: the list of its sequence
		slotOf  []int32    // per (graph, feature) pair, in fold order
		nFeats  int
		nLabels int
		nBytes  int
	)
	for g, f := range ex.Features {
		for i := 0; i < f.Len(); i++ {
			s := seqs.Slot(f.Labels(i))
			for len(sizes) < seqs.Len() {
				sizes = append(sizes, listSize{})
			}
			if sizes[s].n == 0 {
				nFeats++
				nLabels += len(f.Labels(i))
			}
			sizes[s].add(int32(g), f.Count(i))
			slotOf = append(slotOf, s)
		}
	}
	for _, z := range sizes {
		nBytes += z.bytes()
	}
	x := &Path{
		ds:         ds,
		maxPathLen: opts.MaxPathLen,
		dir: &PathDirectory{
			labels: make([]graph.Label, 0, nLabels),
			ends:   make([]uint32, 0, nFeats),
		},
		has:      fullBitmap(nFeats),
		entries:  make([]pathEntry, 0, nFeats),
		postings: make([]byte, nBytes),
	}
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
			n:       sizes[s].n,
			next:    sizes[s].next,
		})
	})
	next := 0
	for g, f := range ex.Features {
		for i := 0; i < f.Len(); i++ {
			lists[at[slotOf[next]]].push(int32(g), f.Count(i))
			next++
		}
	}
	x.finish(ds, ex.Time+time.Since(start), opts.Pool)
	return x
}

// finish sets the statistics of a built or restored index.
func (x *Path) finish(ds []*graph.Graph, buildTime time.Duration, pool *exec.Pool) {
	x.stats = Stats{
		Name:         x.Name(),
		Kind:         KindPath,
		Graphs:       len(ds),
		MaxPathLen:   x.maxPathLen,
		Features:     len(x.entries),
		Nodes:        len(x.entries),
		BuildTime:    buildTime,
		BuildWorkers: PoolWorkers(pool),
		PostingBytes: int64(len(x.postings)),
	}
	for _, e := range x.entries {
		x.stats.Postings += int64(e.n)
	}
}

// PoolWorkers reports a build pool's parallelism for Stats.BuildWorkers; 0
// marks the shared default pool (whose size is the CPU count). Shared by
// every index implementation.
func PoolWorkers(p *exec.Pool) int {
	if p == nil {
		return 0
	}
	return p.Workers()
}

// Name implements ftv.Index.
func (x *Path) Name() string { return "FTV" }

// Dataset implements ftv.Index.
func (x *Path) Dataset() []*graph.Graph { return x.ds }

// MaxPathLen returns the indexed path length.
func (x *Path) MaxPathLen() int { return x.maxPathLen }

// Directory returns the sequence directory the index looks its features up
// in, which the other flat indexes of its row may share.
func (x *Path) Directory() *PathDirectory { return x.dir }

// Stats implements Index.
func (x *Path) Stats() Stats { return x.stats }

// Close implements Index; the flat index owns no resources.
func (x *Path) Close() {}

// listOf returns entry i's posting list, a view of the slab.
func (x *Path) listOf(i int) PostingList {
	var from uint32
	if i > 0 {
		from = x.entries[i-1].listEnd
	}
	e := x.entries[i]
	return PostingList{data: x.postings[from:e.listEnd:e.listEnd], n: e.n, next: e.next}
}

func (x *Path) lookup(labels []graph.Label) PostingList {
	p, ok := x.dir.find(labels)
	if !ok || !x.has.test(p) {
		return PostingList{}
	}
	return x.listOf(x.has.rank(p))
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
// an index no query can see yet.
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

// ShareDirectory gives the flat path indexes of one row — the per-shard
// sub-indexes of KindPath in one build or store — one sequence directory, the
// union of theirs. Each keeps its entries and postings under a bitmap over the
// shared directory, and the directories they held become garbage. It rebinds
// the indexes in place, so it runs only where no query can see them yet:
// BuildGrid calls it on every row it builds, and live.Restore on every row it
// restores. Members of other kinds are left alone, and a row with fewer than
// two flat indexes has nothing to share.
func ShareDirectory(row []Index) {
	var xs []*Path
	for _, sub := range row {
		if x, ok := sub.(*Path); ok {
			xs = append(xs, x)
		}
	}
	if len(xs) < 2 {
		return
	}
	// Shards of one dataset mostly index the same sequences, so the largest
	// directory is often the union already; a union is written only when some
	// shard holds a sequence the largest lacks.
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
		x.adopt(dir) // the union holds every sequence of the row
	}
}

// AdoptDirectory rebinds x, a flat index built to replace from and not yet
// visible to any query, to from's directory when that holds every sequence x
// indexes — always the case when x indexes a subset of from's graphs, as
// after a compaction — so the shard keeps sharing its row's directory.
// Otherwise, and for indexes of other kinds, x keeps its own.
func AdoptDirectory(x, from Index) {
	nx, ok := x.(*Path)
	old, oldOK := from.(*Path)
	if ok && oldOK {
		nx.adopt(old.dir)
	}
}

// unionDirectory returns a new directory holding every sequence of the
// indexes' directories.
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

// Filter implements ftv.Index via the shared presence/frequency pruning.
func (x *Path) Filter(q *graph.Graph) []int {
	return FilterByFeatures(len(x.ds), ftv.QueryFeatures(q, x.maxPathLen), x.lookup)
}

// FilterStream implements Index.
func (x *Path) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	return x.FilterFeatures(ctx, ftv.QueryFeatures(q, x.maxPathLen), emit)
}

// FilterFeatures implements FeatureFilter.
func (x *Path) FilterFeatures(ctx context.Context, feats []ftv.QueryFeature, emit func(graphID int) bool) error {
	return StreamByFeatures(ctx, len(x.ds), feats, x.lookup, emit)
}

// WithGraph implements Inserter: a copy-on-write append. Only the new
// graph's features are extracted. A first pass places each in the directory
// by binary search and sizes the result; one merge pass then writes the new
// entries and posting slab, copying each run of untouched lists whole and
// each touched list with the new posting appended — the appended graph has
// the largest ID, so lists stay ascending. The directory is kept whenever it
// holds every sequence of the graph, sequences new to this index included:
// those only set a bit. A sequence the directory lacks makes a superset
// directory for the new index alone, so an insert never rebinds the other
// shards of the row. The bitmap is rewritten only when a sequence is new to
// the index. The receiver is never mutated: queries racing against the old
// index keep a consistent view. The work is a copy of the slabs, far below
// the path enumeration a rebuild pays, and the allocations are a handful
// whatever the graph touches.
func (x *Path) WithGraph(ctx context.Context, g *graph.Graph) (Index, error) {
	start := time.Now()
	f, err := ftv.ExtractFeaturesContext(ctx, g, x.maxPathLen, false)
	if err != nil {
		return nil, err
	}
	id := int32(len(x.ds))
	// place[i] is where f's feature i is in the directory: p when it is the
	// directory's sequence p, ^p when the directory lacks it and it goes
	// before sequence p.
	place := make([]int, f.Len())
	absent, absentLabels, fresh, listBytes := 0, 0, 0, len(x.postings)
	for i := range place {
		p, ok := x.dir.find(f.Labels(i))
		var z listSize
		switch {
		case !ok:
			p = ^p
			absent++
			absentLabels += len(f.Labels(i))
			fresh++
		case x.has.test(p):
			l := x.listOf(x.has.rank(p))
			z = l.size()
			listBytes -= l.Bytes()
		default:
			fresh++
		}
		z.add(id, f.Count(i))
		listBytes += z.bytes()
		place[i] = p
	}
	ds := make([]*graph.Graph, len(x.ds)+1)
	copy(ds, x.ds)
	ds[len(x.ds)] = g
	nx := &Path{
		ds:         ds,
		maxPathLen: x.maxPathLen,
		dir:        x.dir,
		has:        x.has,
		entries:    make([]pathEntry, 0, len(x.entries)+fresh),
		postings:   make([]byte, 0, listBytes),
	}
	if absent > 0 {
		nx.dir = x.dir.with(f, place, absent, absentLabels)
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
	for i, p := range place {
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
		}
		nx.postings, l = l.appendWith(nx.postings, id, f.Count(i))
		nx.entries = append(nx.entries, pathEntry{
			listEnd: slabOffset(len(nx.postings)),
			n:       l.n,
			next:    l.next,
		})
	}
	nx.copyEntries(x, done, len(x.entries))
	nx.stats = x.stats
	nx.stats.Graphs = len(nx.ds)
	nx.stats.Features = len(nx.entries)
	nx.stats.Nodes = len(nx.entries)
	nx.stats.BuildTime = time.Since(start)
	nx.stats.Postings += int64(f.Len())
	nx.stats.PostingBytes = int64(len(nx.postings))
	return nx, nil
}

// copyEntries appends o's entries [from, to) and their lists to x unchanged,
// the lists' run in one copy.
func (x *Path) copyEntries(o *Path, from, to int) {
	if from == to {
		return
	}
	var listFrom uint32
	if from > 0 {
		listFrom = o.entries[from-1].listEnd
	}
	shift := len(x.postings) - int(listFrom)
	x.postings = append(x.postings, o.postings[listFrom:o.entries[to-1].listEnd]...)
	for _, e := range o.entries[from:to] {
		e.listEnd = slabOffset(int(e.listEnd) + shift)
		x.entries = append(x.entries, e)
	}
}

// Verify implements ftv.Index: VF2 against the whole stored graph.
func (x *Path) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if graphID < 0 || graphID >= len(x.ds) {
		return false, fmt.Errorf("index: graph ID %d out of range [0,%d)", graphID, len(x.ds))
	}
	return vf2.New(x.ds[graphID]).Contains(ctx, q)
}
