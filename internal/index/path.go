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
// The features live in three slabs, each in canonical order: every label
// sequence concatenated, one 16-byte entry per feature holding no pointer,
// and every packed posting list back to back. A feature is its entry's
// position; its labels and its list run from where the previous entry's end
// to where its own end. An index is thus three allocations whatever its
// size, with nothing for the collector to trace, and each slab is a form a
// file could hold as it is.

import (
	"context"
	"fmt"
	"math"
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
	// order the snapshot export promises, so exporting is a plain walk and a
	// lookup is a binary search over entries. Immutable: WithGraph writes new
	// slabs, sharing only labels when the graph brings no new sequence.
	labels   []graph.Label
	entries  []pathEntry
	postings []byte
	stats    Stats
}

// pathEntry is one feature: where its labels and its list end in the slabs,
// and the list's posting count and next base (PostingList.n, .next).
type pathEntry struct {
	labelEnd, listEnd uint32
	n, next           int32
}

// slabOffset is a slab length as an entry's offset; a slab longer than an
// offset can address panics instead of wrapping.
func slabOffset(n int) uint32 {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("index: the flat path index (%s) holds %d labels or posting bytes, past the 2^32 an offset can address; shard the dataset", KindPath, n))
	}
	return uint32(n)
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
// canonical walk then lays out the three slabs; the second pass fills the
// lists graph by graph, which leaves them ascending with no sort and no spare
// byte. (Measured on the benchmark's 300 × 50-vertex, 8-label dataset, 1.57 M
// postings at 2.0 bytes each: the fold is about a fifth of an ftv build's
// wall time on two cores, interning about half of the fold. The graphs'
// features arrive sorted, so a k-way merge would group them with no table at
// all, but at postings × log₂ graphs sequence comparisons it does more work
// than the five probes a posting costs here.)
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
		labels:     make([]graph.Label, 0, nLabels),
		entries:    make([]pathEntry, 0, nFeats),
		postings:   make([]byte, nBytes),
	}
	at := make([]int32, len(sizes))      // trie slot → feature
	lists := make([]PostingList, nFeats) // the fill's write cursors into postings
	rest := x.postings
	seqs.Walk(func(s int32, labels []graph.Label) {
		if sizes[s].n == 0 {
			return // a proper prefix of features, not one itself
		}
		at[s] = int32(len(x.entries))
		x.labels = append(x.labels, labels...)
		lists[at[s]] = carve(&rest, sizes[s])
		x.entries = append(x.entries, pathEntry{
			labelEnd: slabOffset(len(x.labels)),
			listEnd:  slabOffset(nBytes - len(rest)),
			n:        sizes[s].n,
			next:     sizes[s].next,
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

// Stats implements Index.
func (x *Path) Stats() Stats { return x.stats }

// Close implements Index; the flat index owns no resources.
func (x *Path) Close() {}

// starts returns where feature i's labels and list begin in the slabs: where
// the previous feature's end.
func (x *Path) starts(i int) (labelFrom, listFrom uint32) {
	if i == 0 {
		return 0, 0
	}
	return x.entries[i-1].labelEnd, x.entries[i-1].listEnd
}

// labelsOf returns feature i's label sequence. Callers must not modify it.
func (x *Path) labelsOf(i int) []graph.Label {
	from, _ := x.starts(i)
	end := x.entries[i].labelEnd
	return x.labels[from:end:end]
}

// listOf returns feature i's posting list, a view of the slab.
func (x *Path) listOf(i int) PostingList {
	_, from := x.starts(i)
	e := x.entries[i]
	return PostingList{data: x.postings[from:e.listEnd:e.listEnd], n: e.n, next: e.next}
}

// find returns the position of a label sequence among the features: where it
// is, or where it would go.
func (x *Path) find(labels []graph.Label) (int, bool) {
	lo, hi := 0, len(x.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if CompareLabelSeqs(x.labelsOf(mid), labels) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(x.entries) && CompareLabelSeqs(x.labelsOf(lo), labels) == 0
}

func (x *Path) lookup(labels []graph.Label) PostingList {
	at, ok := x.find(labels)
	if !ok {
		return PostingList{}
	}
	return x.listOf(at)
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
// graph's features are extracted. A first pass places each among the
// receiver's features by binary search and sizes the result; one merge pass
// then writes the new entries and posting slab, copying each run of untouched
// lists whole and each touched list with the new posting appended — the
// appended graph has the largest ID, so lists stay ascending. A new label
// slab is written only when the graph brings a sequence the index lacks;
// otherwise it is shared. The receiver is never mutated: queries racing
// against the old index keep a consistent view. The work is a copy of the
// slabs, far below the path enumeration a rebuild pays, and the allocations
// are a handful whatever the graph touches.
func (x *Path) WithGraph(ctx context.Context, g *graph.Graph) (Index, error) {
	start := time.Now()
	f, err := ftv.ExtractFeaturesContext(ctx, g, x.maxPathLen, false)
	if err != nil {
		return nil, err
	}
	id := int32(len(x.ds))
	// place[i] is where f's feature i goes: p when it is the receiver's
	// feature p, ^p when it is new and goes before the receiver's feature p.
	place := make([]int, f.Len())
	fresh, freshLabels, listBytes := 0, 0, len(x.postings)
	for i := range place {
		at, ok := x.find(f.Labels(i))
		var z listSize
		if ok {
			l := x.listOf(at)
			z = l.size()
			listBytes -= l.Bytes()
		} else {
			at = ^at
			fresh++
			freshLabels += len(f.Labels(i))
		}
		z.add(id, f.Count(i))
		listBytes += z.bytes()
		place[i] = at
	}
	ds := make([]*graph.Graph, len(x.ds)+1)
	copy(ds, x.ds)
	ds[len(x.ds)] = g
	nx := &Path{
		ds:         ds,
		maxPathLen: x.maxPathLen,
		labels:     x.labels,
		entries:    make([]pathEntry, 0, len(x.entries)+fresh),
		postings:   make([]byte, 0, listBytes),
	}
	ownLabels := fresh > 0
	if ownLabels {
		nx.labels = make([]graph.Label, 0, len(x.labels)+freshLabels)
	}
	done := 0 // the receiver's features merged so far
	for i, at := range place {
		var l PostingList // a new feature's list is empty
		labels, labelEnd := f.Labels(i), 0
		if at >= 0 {
			nx.copyFeatures(x, done, at, ownLabels)
			l, labels, labelEnd, done = x.listOf(at), x.labelsOf(at), int(x.entries[at].labelEnd), at+1
		} else {
			nx.copyFeatures(x, done, ^at, ownLabels)
			done = ^at
		}
		nx.postings, l = l.appendWith(nx.postings, id, f.Count(i))
		if ownLabels {
			nx.labels = append(nx.labels, labels...)
			labelEnd = len(nx.labels)
		}
		nx.entries = append(nx.entries, pathEntry{
			labelEnd: slabOffset(labelEnd),
			listEnd:  slabOffset(len(nx.postings)),
			n:        l.n,
			next:     l.next,
		})
	}
	nx.copyFeatures(x, done, len(x.entries), ownLabels)
	nx.stats = x.stats
	nx.stats.Graphs = len(nx.ds)
	nx.stats.Features = len(nx.entries)
	nx.stats.Nodes = len(nx.entries)
	nx.stats.BuildTime = time.Since(start)
	nx.stats.Postings += int64(f.Len())
	nx.stats.PostingBytes = int64(len(nx.postings))
	return nx, nil
}

// copyFeatures appends o's features [from, to) to x unchanged, each slab's run
// in one copy — the labels only when x has a label slab of its own, else the
// two share it and the label ends stand.
func (x *Path) copyFeatures(o *Path, from, to int, ownLabels bool) {
	if from == to {
		return
	}
	labelFrom, listFrom := o.starts(from)
	last := o.entries[to-1]
	labelShift, listShift := 0, len(x.postings)-int(listFrom)
	if ownLabels {
		labelShift = len(x.labels) - int(labelFrom)
		x.labels = append(x.labels, o.labels[labelFrom:last.labelEnd]...)
	}
	x.postings = append(x.postings, o.postings[listFrom:last.listEnd]...)
	for _, e := range o.entries[from:to] {
		e.labelEnd = slabOffset(int(e.labelEnd) + labelShift)
		e.listEnd = slabOffset(int(e.listEnd) + listShift)
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
