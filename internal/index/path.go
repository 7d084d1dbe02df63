package index

// The path-based FTV baseline: the simplest member of the portfolio. It
// stores every extracted path feature — an undirected label path under its
// oriented spelling (ftv.Oriented) — in one flat array sorted by label
// sequence — no trie, no locations — and verifies candidates with VF2
// against the whole stored graph. Its filtering power is identical to GGSX
// (both count all ≤maxLen paths); what differs is the storage layout and
// lookup cost, which is exactly the kind of constant-factor alternative the
// racing Engine exploits: on some queries the flat array's binary search
// over whole sequences beats the tries, on others the tries' shared prefixes
// win.

import (
	"context"
	"fmt"
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
	// feats holds the indexed features in canonical (lexicographic label
	// sequence) order, each with its packed posting list — the order the
	// snapshot export promises, so exporting is a plain walk and a lookup is
	// a binary search. Immutable: WithGraph derives a new array, sharing the
	// lists it does not touch.
	feats    []pathFeature
	verifier []*vf2.Matcher // per-graph VF2 matcher with prebuilt label index
	stats    Stats
}

type pathFeature struct {
	labels []graph.Label
	list   PostingList
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
// canonical walk then lays out the features, carving the label sequences and
// the lists from one slab each; the second pass fills the lists graph by
// graph, which leaves them ascending with no sort and no spare capacity.
// (Measured on the benchmark's 300 × 50-vertex, 8-label dataset, 1.57 M
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
		feats:      make([]pathFeature, 0, nFeats),
	}
	at := make([]int32, len(sizes)) // trie slot → position in feats
	labelSlab := make([]graph.Label, 0, nLabels)
	listSlab := make([]byte, nBytes)
	seqs.Walk(func(s int32, labels []graph.Label) {
		if sizes[s].n == 0 {
			return // a proper prefix of features, not one itself
		}
		at[s] = int32(len(x.feats))
		from := len(labelSlab)
		labelSlab = append(labelSlab, labels...)
		x.feats = append(x.feats, pathFeature{labels: labelSlab[from:len(labelSlab):len(labelSlab)], list: carve(&listSlab, sizes[s])})
	})
	next := 0
	for g, f := range ex.Features {
		for i := 0; i < f.Len(); i++ {
			x.feats[at[slotOf[next]]].list.push(int32(g), f.Count(i))
			next++
		}
	}
	x.finish(ds, ex.Time+time.Since(start), opts.Pool)
	return x
}

// finish builds the per-graph verifiers and the statistics.
func (x *Path) finish(ds []*graph.Graph, buildTime time.Duration, pool *exec.Pool) {
	x.verifier = make([]*vf2.Matcher, len(ds))
	for id, g := range ds {
		x.verifier[id] = vf2.New(g)
	}
	x.stats = Stats{
		Name:         x.Name(),
		Kind:         KindPath,
		Graphs:       len(ds),
		MaxPathLen:   x.maxPathLen,
		Features:     len(x.feats),
		Nodes:        len(x.feats),
		BuildTime:    buildTime,
		BuildWorkers: PoolWorkers(pool),
	}
	x.countPostings()
}

// countPostings sets the statistics of the lists as they stand.
func (x *Path) countPostings() {
	x.stats.Postings, x.stats.PostingBytes = 0, 0
	for _, ft := range x.feats {
		x.stats.Postings += int64(ft.list.Len())
		x.stats.PostingBytes += int64(ft.list.Bytes())
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

// find returns the position of a label sequence in feats.
func (x *Path) find(labels []graph.Label) (int, bool) {
	return slices.BinarySearchFunc(x.feats, labels, func(ft pathFeature, labels []graph.Label) int {
		return CompareLabelSeqs(ft.labels, labels)
	})
}

func (x *Path) lookup(labels []graph.Label) PostingList {
	at, ok := x.find(labels)
	if !ok {
		return PostingList{}
	}
	return x.feats[at].list
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
// graph's features are extracted; the posting lists of features it touches
// are re-allocated one posting longer — the appended graph has the largest
// ID, so they stay ascending — and every other list and the label sequences are
// shared with the receiver, which is never mutated: queries racing against
// the old index keep a consistent view. The copy is O(features),
// far below the path enumeration a rebuild pays, which is what makes
// single-graph ingest cheap.
func (x *Path) WithGraph(ctx context.Context, g *graph.Graph) (Index, error) {
	start := time.Now()
	f, err := ftv.ExtractFeaturesContext(ctx, g, x.maxPathLen, false)
	if err != nil {
		return nil, err
	}
	id := int32(len(x.ds))
	nx := &Path{
		ds:         append(slices.Clone(x.ds), g),
		maxPathLen: x.maxPathLen,
		feats:      slices.Clone(x.feats),
		verifier:   append(slices.Clone(x.verifier), vf2.New(g)),
	}
	var fresh []pathFeature // features new to the index, in canonical order
	for i := 0; i < f.Len(); i++ {
		if at, ok := x.find(f.Labels(i)); ok {
			nx.feats[at].list = x.feats[at].list.with(id, f.Count(i))
		} else {
			fresh = append(fresh, pathFeature{labels: slices.Clone(f.Labels(i)), list: PostingList{}.with(id, f.Count(i))})
		}
	}
	if len(fresh) > 0 {
		// Merge the newcomers in at their canonical positions.
		merged := make([]pathFeature, 0, len(nx.feats)+len(fresh))
		for _, ft := range nx.feats {
			for len(fresh) > 0 && CompareLabelSeqs(fresh[0].labels, ft.labels) < 0 {
				merged = append(merged, fresh[0])
				fresh = fresh[1:]
			}
			merged = append(merged, ft)
		}
		nx.feats = append(merged, fresh...)
	}
	nx.stats = x.stats
	nx.stats.Graphs = len(nx.ds)
	nx.stats.Features = len(nx.feats)
	nx.stats.Nodes = len(nx.feats)
	nx.stats.BuildTime = time.Since(start)
	nx.countPostings()
	return nx, nil
}

// Verify implements ftv.Index: VF2 against the whole stored graph.
func (x *Path) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if graphID < 0 || graphID >= len(x.verifier) {
		return false, fmt.Errorf("index: graph ID %d out of range [0,%d)", graphID, len(x.verifier))
	}
	return x.verifier[graphID].Contains(ctx, q)
}
