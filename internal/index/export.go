package index

// Snapshot support: the export that reads a table's feature arrays out for
// the on-disk snapshot format (internal/snapshot), and the restore that
// rebuilds a table from those arrays without re-enumerating any paths. Both
// round-trip one shard's table, not an index. Export and restore are inverses
// by contract: Restore(kind, ds, x.MaxPathLen(), opts, Export(x)) must answer
// every query byte-identically to x, under every name's verifier.

import (
	"fmt"
	"slices"
	"time"

	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
)

// FeaturePosting is one graph's entry in an exported feature's posting list.
type FeaturePosting struct {
	// GraphID is the graph's ID within the index's own dataset (local, for
	// per-shard tables).
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

// Export reads every feature x indexes — oriented spellings only
// (ftv.Oriented) — exactly once, in the canonical order its directory and
// entries already keep (lexicographically ascending label sequences), with
// postings in ascending local graph ID order, so the serialized bytes are
// identical across runs: a walk over the set bits of its presence bitmap.
// The export is where location sets leave their stored form: each is
// expanded to ascending vertex IDs, one allocation per feature. x.MaxPathLen
// is the path length to persist beside them, so that the restored table
// extracts query features identically.
func Export(x *Path) []ExportedFeature {
	out := make([]ExportedFeature, 0, len(x.entries))
	i := 0
	for p := range x.has.ones() {
		ps := x.listOf(i).export()
		if refs := x.refsOf(i); refs != nil {
			x.expandLocations(ps, refs)
		}
		out = append(out, ExportedFeature{Labels: slices.Clone(x.dir.seq(p)), Postings: ps})
		i++
	}
	return out
}

// Restore rebuilds the table of kind from exported features — the load half
// of the snapshot round trip. opts.Pool is recorded as the table's
// BuildWorkers; maxPathLen comes from the snapshot, not opts, so filtering
// stays identical to the saved table.
func Restore(kind string, ds []*graph.Graph, maxPathLen int, opts Options, feats []ExportedFeature) (*Path, error) {
	feats, err := CheckFeatures(kind, ds, feats)
	if err != nil {
		return nil, err
	}
	return RestorePath(kind, ds, maxPathLen, opts, feats), nil
}

// CheckFeatures validates exported features of kind over ds and returns them
// in the form RestorePath takes. A table keeps features, postings and
// locations in the export's canonical order and searches them by it — and
// located verification indexes a bitset of the graph's vertices by its
// locations — so a file that breaks the order or the bounds is rejected here
// rather than answered from wrongly.
func CheckFeatures(kind string, ds []*graph.Graph, feats []ExportedFeature) ([]ExportedFeature, error) {
	if err := checkKind(kind); err != nil {
		return nil, err
	}
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
			// placeholder under a mutable store's snapshot: the table
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
	return dropMirrors(kind, feats)
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
// first) — the canonical feature order of the snapshot format, the order
// ftv.Features.Canonical gives and every index keeps its features in.
func CompareLabelSeqs(a, b []graph.Label) int { return slices.Compare(a, b) }

// expandLocations sets the locations of the postings ps from their sets'
// references.
func (x *Path) expandLocations(ps []FeaturePosting, refs []ftv.LocRef) {
	members := 0
	for i, p := range ps {
		members += x.locs.Members(refs[i], ftv.Words(x.ds[p.GraphID].N()))
	}
	ids := make([]int32, 0, members)
	for i, p := range ps {
		from := len(ids)
		ids = x.locs.AppendIDs(ids, refs[i], ftv.Words(x.ds[p.GraphID].N()))
		if len(ids) > from { // the empty set is nil, as the snapshot decodes it
			ps[i].Locations = ids[from:len(ids):len(ids)]
		}
	}
}

// RestorePath rebuilds the table of kind: its directory, entries and posting
// slab — and, under "grapes", its references and location sets, each set
// packed into the form the extraction gives it (ftv.RowForm) — written
// straight from the exported features (CheckFeatures has checked their order
// and bounds), measured first so that each is one allocation with no
// slack. No path enumeration runs, which is where the cold-start speedup
// comes from. The table holds every sequence of its own directory; a restored
// store then shares one directory across its shards (ShareDirectory).
func RestorePath(kind string, ds []*graph.Graph, maxPathLen int, opts Options, feats []ExportedFeature) *Path {
	if maxPathLen <= 0 {
		maxPathLen = ftv.DefaultMaxPathLen
	}
	start := time.Now()
	located := kind == KindGrapes
	sizes := make([]listSize, len(feats))
	nLabels, nBytes, nPostings, rowWords, listIDs := 0, 0, 0, 0, 0
	for i, f := range feats {
		sizes[i] = measure(f.Postings)
		nLabels += len(f.Labels)
		nBytes += sizes[i].bytes()
		nPostings += len(f.Postings)
		if !located {
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
	x := newPath(kind, ds, maxPathLen)
	x.dir = &PathDirectory{
		labels: make([]graph.Label, 0, nLabels),
		ends:   make([]uint32, 0, len(feats)),
	}
	x.has = fullBitmap(len(feats))
	x.entries = make([]pathEntry, 0, len(feats))
	x.postings = make([]byte, nBytes)
	if located {
		x.refs = make([]ftv.LocRef, 0, nPostings)
		x.locs.Reserve(rowWords, listIDs)
	}
	rest := x.postings
	for i, f := range feats {
		x.dir.push(f.Labels)
		l := carve(&rest, sizes[i])
		for _, p := range f.Postings {
			l.push(int32(p.GraphID), p.Count)
			if located {
				x.refs = append(x.refs, x.locs.AppendList(p.Locations, ftv.Words(ds[p.GraphID].N())))
			}
		}
		x.entries = append(x.entries, pathEntry{
			listEnd: slabOffset(nBytes - len(rest)),
			postEnd: x.postingCount() + uint32(l.n),
			next:    l.next,
		})
	}
	x.finish(time.Since(start), opts.Pool)
	return x
}
