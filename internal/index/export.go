package index

// Snapshot support: the optional export capability an index kind implements
// so its feature arrays can be written to the on-disk snapshot format
// (internal/snapshot), and the restorer registry the loader dispatches on to
// rebuild a kind from those arrays without re-enumerating any paths. Export
// and restore are inverses by contract: Restore(kind, ds, Export(x)) must
// answer every query byte-identically to x.

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// FeaturePosting is one graph's entry in an exported feature's posting list.
type FeaturePosting struct {
	// GraphID is the graph's ID within the index's own dataset (local, for
	// per-shard sub-indexes).
	GraphID int
	// Count is the feature's occurrence count in the graph.
	Count int32
	// Locations holds the sorted vertex IDs the occurrences touch, for
	// kinds that keep location info (Grapes); nil otherwise.
	Locations []int32
}

// ExportedFeature is one indexed label sequence with its full posting list —
// the flat, structure-free representation every kind round-trips through the
// snapshot format.
type ExportedFeature struct {
	Labels   []graph.Label
	Postings []FeaturePosting
}

// FeatureExporter is the snapshot capability of an index kind: ExportFeatures
// visits every indexed feature — oriented spellings only (ftv.Oriented) —
// exactly once, in deterministic order (lexicographically ascending label
// sequences) with postings in ascending graph-ID order, so the serialized
// bytes are identical across runs.
// MaxPathLen reports the indexed path length, persisted so the restored
// index extracts query features identically.
type FeatureExporter interface {
	ExportFeatures(visit func(labels []graph.Label, postings []FeaturePosting) error) error
	MaxPathLen() int
}

// Export collects an index's features via its FeatureExporter capability.
// It returns an error for kinds that cannot be snapshotted.
func Export(x Index) ([]ExportedFeature, int, error) {
	ex, ok := x.(FeatureExporter)
	if !ok {
		return nil, 0, fmt.Errorf("index: %s does not support feature export", x.Name())
	}
	var out []ExportedFeature
	err := ex.ExportFeatures(func(labels []graph.Label, postings []FeaturePosting) error {
		out = append(out, ExportedFeature{
			Labels:   append([]graph.Label(nil), labels...),
			Postings: append([]FeaturePosting(nil), postings...),
		})
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, ex.MaxPathLen(), nil
}

// RestoreFunc rebuilds one kind over ds from exported features. opts carries
// the runtime knobs the restored index needs (Workers, Pool); MaxPathLen
// comes from the snapshot, not opts, so filtering stays identical to the
// saved index.
type RestoreFunc func(ds []*graph.Graph, maxPathLen int, opts Options, feats []ExportedFeature) (Index, error)

var (
	restorerMu sync.RWMutex
	restorers  = map[string]RestoreFunc{}
)

// RegisterRestorer makes a restore function available under a kind name.
// Implementations call it from init, next to Register; duplicates panic.
func RegisterRestorer(kind string, fn RestoreFunc) {
	restorerMu.Lock()
	defer restorerMu.Unlock()
	if _, dup := restorers[kind]; dup {
		panic("index: duplicate restorer for kind " + kind)
	}
	restorers[kind] = fn
}

// Restore rebuilds a monolithic index of the registered kind from exported
// features — the load half of the snapshot round trip.
func Restore(kind string, ds []*graph.Graph, maxPathLen int, opts Options, feats []ExportedFeature) (Index, error) {
	restorerMu.RLock()
	fn := restorers[kind]
	restorerMu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("index: no restorer for kind %q", kind)
	}
	// The indexes keep features, postings and locations in the export's
	// canonical order and search them by it — and Grapes indexes a bitset of
	// the graph's vertices by its locations — so a file that breaks the
	// order or the bounds is rejected here rather than answered from wrongly.
	for i, f := range feats {
		if i > 0 && CompareLabelSeqs(feats[i-1].Labels, f.Labels) >= 0 {
			return nil, fmt.Errorf("index: restoring %q: feature %d out of canonical order", kind, i)
		}
		for j, p := range f.Postings {
			if p.GraphID < 0 || p.GraphID >= len(ds) {
				return nil, fmt.Errorf("index: restoring %q: posting graph ID %d out of range [0,%d)", kind, p.GraphID, len(ds))
			}
			if j > 0 && f.Postings[j-1].GraphID >= p.GraphID {
				return nil, fmt.Errorf("index: restoring %q: feature %d postings not ascending by graph ID", kind, i)
			}
			// A zero-vertex graph with postings is a tombstoned slot's
			// placeholder under a mutable store's snapshot: the sub-index
			// still carries the dead graph's features until compaction, no
			// query reaches them (the dense view skips dead slots), so
			// there is no vertex count left to hold them to.
			n := ds[p.GraphID].N()
			for l, v := range p.Locations {
				if v < 0 || (n > 0 && int(v) >= n) {
					return nil, fmt.Errorf("index: restoring %q: location %d out of range for graph %d (n=%d)", kind, v, p.GraphID, n)
				}
				if l > 0 && p.Locations[l-1] >= v {
					return nil, fmt.Errorf("index: restoring %q: feature %d locations in graph %d not ascending", kind, i, p.GraphID)
				}
			}
		}
	}
	feats, err := dropMirrors(kind, feats)
	if err != nil {
		return nil, err
	}
	return fn(ds, maxPathLen, opts, feats)
}

// dropMirrors reduces the features of a snapshot written before indexes kept
// each undirected path under its oriented spelling only (ftv.Oriented) to
// that form. Such a file holds every path under both spellings, with equal
// postings; the mirror spelling is dropped — only once it is seen to be one:
// its oriented twin present, with the same postings, counts and locations. A
// mirror spelling on its own, or one that disagrees with its twin, is not
// something any build wrote, and dropping it would turn "this path occurs in
// these graphs" into "in none", so the file is refused. Features written
// since are all oriented and pass through untouched.
func dropMirrors(kind string, feats []ExportedFeature) ([]ExportedFeature, error) {
	first := slices.IndexFunc(feats, func(f ExportedFeature) bool { return !ftv.Oriented(f.Labels) })
	if first < 0 {
		return feats, nil
	}
	kept := slices.Clone(feats[:first])
	var twin []graph.Label
	for i, f := range feats[first:] {
		if ftv.Oriented(f.Labels) {
			kept = append(kept, f)
			continue
		}
		twin = append(twin[:0], f.Labels...)
		slices.Reverse(twin)
		at, ok := slices.BinarySearchFunc(feats, twin, func(f ExportedFeature, labels []graph.Label) int {
			return CompareLabelSeqs(f.Labels, labels)
		})
		if !ok {
			return nil, fmt.Errorf("index: restoring %q: feature %d is a reversed spelling without its oriented twin", kind, first+i)
		}
		same := slices.EqualFunc(f.Postings, feats[at].Postings, func(a, b FeaturePosting) bool {
			return a.GraphID == b.GraphID && a.Count == b.Count && slices.Equal(a.Locations, b.Locations)
		})
		if !same {
			return nil, fmt.Errorf("index: restoring %q: feature %d is a reversed spelling whose postings differ from its oriented twin's", kind, first+i)
		}
	}
	return kept, nil
}

// CompareLabelSeqs orders label sequences lexicographically (shorter prefix
// first) — the canonical feature order of the snapshot format, and the order
// ftv.Features and every index keep their features in.
func CompareLabelSeqs(a, b []graph.Label) int { return slices.Compare(a, b) }

func init() {
	RegisterRestorer(KindPath, restorePath)
}

// ExportFeatures implements FeatureExporter for the flat path index, whose
// directory and entries are in the canonical order already: a walk over the
// set bits of its presence bitmap.
func (x *Path) ExportFeatures(visit func(labels []graph.Label, postings []FeaturePosting) error) error {
	i := 0
	for p := range x.has.ones() {
		if err := visit(x.dir.seq(p), x.listOf(i).export()); err != nil {
			return err
		}
		i++
	}
	return nil
}

// restorePath rebuilds the flat path index: its directory, entries and
// posting slab written straight from the exported features (Restore has
// checked their order), measured first so that each is one allocation with no
// slack. No path enumeration runs, which is where the cold-start speedup
// comes from. The index holds every sequence of its own directory; a
// restored store then shares one directory across a row (ShareDirectory).
func restorePath(ds []*graph.Graph, maxPathLen int, opts Options, feats []ExportedFeature) (Index, error) {
	if maxPathLen <= 0 {
		maxPathLen = ftv.DefaultMaxPathLen
	}
	start := time.Now()
	sizes := make([]listSize, len(feats))
	nLabels, nBytes := 0, 0
	for i, f := range feats {
		sizes[i] = measure(f.Postings)
		nLabels += len(f.Labels)
		nBytes += sizes[i].bytes()
	}
	x := &Path{
		ds:         ds,
		maxPathLen: maxPathLen,
		dir: &PathDirectory{
			labels: make([]graph.Label, 0, nLabels),
			ends:   make([]uint32, 0, len(feats)),
		},
		has:      fullBitmap(len(feats)),
		entries:  make([]pathEntry, len(feats)),
		postings: make([]byte, nBytes),
	}
	rest := x.postings
	for i, f := range feats {
		x.dir.push(f.Labels)
		l := carve(&rest, sizes[i])
		for _, p := range f.Postings {
			l.push(int32(p.GraphID), p.Count)
		}
		x.entries[i] = pathEntry{listEnd: slabOffset(nBytes - len(rest)), n: l.n, next: l.next}
	}
	x.finish(ds, time.Since(start), opts.Pool)
	return x, nil
}
