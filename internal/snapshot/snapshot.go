package snapshot

import (
	"fmt"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// Model is the serialized shape of a dataset engine: everything needed to
// reconstruct the graphs, the per-kind/per-shard index grid and (for mutable
// engines) the live store's slot/tombstone/epoch state, with no path
// enumeration on the load side.
type Model struct {
	// Mutable records whether the snapshot came from a live store; a load
	// must run in the same mode, because the graph arrays are slot-space
	// (placeholders included) for mutable snapshots and dense for static.
	Mutable bool
	// Shards is the effective shard count K (>= 1). Indexes[kind] holds
	// exactly K sub-indexes; sub-index s covers every K-th graph from s.
	Shards int
	// Kinds lists the index kinds in portfolio order.
	Kinds []string
	// MaxPathLen is the indexed path length per kind, persisted so restored
	// indexes extract query features identically to the saved ones.
	MaxPathLen map[string]int
	// Epoch and NextHandle are the live store's counters (mutable only;
	// zero otherwise).
	Epoch      uint64
	NextHandle int64
	// Graphs is the dataset: dense for static snapshots, slot-space with
	// placeholders at dead slots for mutable ones.
	Graphs []*graph.Graph
	// Alive, Handles and Tombs are the live store's slot-space liveness
	// bitmap, per-slot public handles and per-shard tombstone counters
	// (mutable only; nil otherwise).
	Alive   []bool
	Handles []int64
	Tombs   []int32
	// Indexes is the per-kind grid of per-shard sub-indexes. On Save each
	// sub-index must implement index.FeatureExporter; on Load each is a
	// freshly restored index over its shard's sub-dataset.
	Indexes map[string][]index.Index
}

// Save serializes the model to path atomically (temp file + rename): a crash
// mid-save leaves any previous snapshot at path intact. The serialized bytes
// are deterministic for a given model — features are written in canonical
// (lexicographic) order with ascending-ID postings.
func Save(path string, m *Model) error {
	if m.Shards < 1 {
		return fmt.Errorf("snapshot: shard count %d < 1", m.Shards)
	}
	if len(m.Kinds) == 0 {
		return fmt.Errorf("snapshot: no index kinds")
	}
	if m.Mutable {
		if len(m.Alive) != len(m.Graphs) || len(m.Handles) != len(m.Graphs) {
			return fmt.Errorf("snapshot: slot arrays disagree: %d graphs, %d alive, %d handles", len(m.Graphs), len(m.Alive), len(m.Handles))
		}
		if len(m.Tombs) != m.Shards {
			return fmt.Errorf("snapshot: %d tombstone counters for %d shards", len(m.Tombs), m.Shards)
		}
	}

	// Export every sub-index first: the per-kind MaxPathLen lands in the
	// meta section, which is written ahead of the feature arrays.
	maxLen := make(map[string]int, len(m.Kinds))
	type block struct {
		prefix string
		feats  []index.ExportedFeature
	}
	var blocks []block
	for _, kind := range m.Kinds {
		subs := m.Indexes[kind]
		if len(subs) != m.Shards {
			return fmt.Errorf("snapshot: kind %q has %d sub-indexes for %d shards", kind, len(subs), m.Shards)
		}
		for s, sub := range subs {
			feats, ml, err := index.Export(sub)
			if err != nil {
				return fmt.Errorf("snapshot: exporting %s shard %d: %w", kind, s, err)
			}
			if prev, ok := maxLen[kind]; ok && prev != ml {
				return fmt.Errorf("snapshot: kind %q shards disagree on MaxPathLen (%d vs %d)", kind, prev, ml)
			}
			maxLen[kind] = ml
			blocks = append(blocks, block{prefix: ixPrefix(kind, s), feats: feats})
		}
	}

	w := &writer{}
	var meta buf
	meta.bool(m.Mutable)
	meta.u32(uint32(m.Shards))
	meta.u64(m.Epoch)
	meta.u64(uint64(m.NextHandle))
	meta.u32(uint32(len(m.Kinds)))
	for _, kind := range m.Kinds {
		meta.str(kind)
		meta.u32(uint32(maxLen[kind]))
	}
	w.add("meta", meta.b)
	addDataset(w, m.Graphs)
	if m.Mutable {
		var alive, handles, tombs buf
		alive.bools(m.Alive)
		handles.i64s(m.Handles)
		tombs.i32s(m.Tombs)
		w.add("live/alive", alive.b)
		w.add("live/handles", handles.b)
		w.add("live/tombs", tombs.b)
	}
	for _, blk := range blocks {
		addFeatures(w, blk.prefix, blk.feats)
	}
	return w.writeFile(path)
}

// Load validates and deserializes a snapshot, restoring every graph (through
// graph.FromCSR's full structural validation) and every per-shard sub-index.
// ixOpts carries the runtime knobs of the restored indexes (Workers, Pool);
// layout-affecting parameters (MaxPathLen, shard count) come from the file.
// Any failure — checksum, shape, structural — returns before any state
// escapes, and already-restored indexes are closed: never a partial engine.
func Load(path string, ixOpts index.Options) (m *Model, err error) {
	r, err := open(path)
	if err != nil {
		return nil, err
	}
	metaB, err := r.section("meta")
	if err != nil {
		return nil, err
	}
	d := &dec{b: metaB}
	m = &Model{
		Mutable:    d.bool(),
		Shards:     int(d.u32()),
		Epoch:      d.u64(),
		MaxPathLen: map[string]int{},
		Indexes:    map[string][]index.Index{},
	}
	m.NextHandle = int64(d.u64())
	nKinds := int(d.u32())
	if d.err == nil && nKinds > maxSections {
		return nil, fmt.Errorf("snapshot: absurd kind count %d", nKinds)
	}
	for i := 0; i < nKinds && d.err == nil; i++ {
		kind := d.str()
		m.Kinds = append(m.Kinds, kind)
		m.MaxPathLen[kind] = int(d.u32())
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("snapshot: meta: %w", err)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("snapshot: shard count %d < 1", m.Shards)
	}
	if len(m.Kinds) == 0 {
		return nil, fmt.Errorf("snapshot: no index kinds")
	}
	if m.Graphs, err = decodeDataset(r); err != nil {
		return nil, err
	}
	if m.Mutable {
		aliveB, err := r.section("live/alive")
		if err != nil {
			return nil, err
		}
		if m.Alive, err = decBools(aliveB, "live/alive"); err != nil {
			return nil, err
		}
		handlesB, err := r.section("live/handles")
		if err != nil {
			return nil, err
		}
		if m.Handles, err = decInt64s(handlesB, "live/handles"); err != nil {
			return nil, err
		}
		tombsB, err := r.section("live/tombs")
		if err != nil {
			return nil, err
		}
		if m.Tombs, err = decInt32s(tombsB, "live/tombs"); err != nil {
			return nil, err
		}
		if len(m.Alive) != len(m.Graphs) || len(m.Handles) != len(m.Graphs) {
			return nil, fmt.Errorf("snapshot: slot arrays disagree: %d graphs, %d alive, %d handles", len(m.Graphs), len(m.Alive), len(m.Handles))
		}
		if len(m.Tombs) != m.Shards {
			return nil, fmt.Errorf("snapshot: %d tombstone counters for %d shards", len(m.Tombs), m.Shards)
		}
	}
	var restored []index.Index
	defer func() {
		if err != nil {
			for _, sub := range restored {
				sub.Close()
			}
		}
	}()
	for _, kind := range m.Kinds {
		subs := make([]index.Index, m.Shards)
		for s := 0; s < m.Shards; s++ {
			feats, err := decodeFeatures(r, ixPrefix(kind, s))
			if err != nil {
				return nil, err
			}
			subDS := index.ShardDataset(m.Graphs, s, m.Shards)
			sub, err := index.Restore(kind, subDS, m.MaxPathLen[kind], ixOpts, feats)
			if err != nil {
				return nil, fmt.Errorf("snapshot: restoring %s shard %d: %w", kind, s, err)
			}
			subs[s] = sub
			restored = append(restored, sub)
		}
		m.Indexes[kind] = subs
	}
	return m, nil
}

// ixPrefix names the section group of one (kind, shard) sub-index.
func ixPrefix(kind string, shard int) string {
	return fmt.Sprintf("ix/%s/%d/", kind, shard)
}

// addDataset writes the dataset as six flat sections: per-graph names and
// vertex counts, then the concatenation of every graph's CSR arrays. Each is
// one contiguous length-prefixed array — the mmap-forward contract.
func addDataset(w *writer, ds []*graph.Graph) {
	var names, nverts, labels, offsets, nbrs, elabs buf
	names.u64(uint64(len(ds)))
	var nv []int32
	var flatLabels, flatOffsets, flatNbrs, flatElabs []int32
	for _, g := range ds {
		names.str(g.Name())
		gl, goffs, gn, ge := g.CSR()
		nv = append(nv, int32(len(gl)))
		for _, l := range gl {
			flatLabels = append(flatLabels, int32(l))
		}
		flatOffsets = append(flatOffsets, goffs...)
		flatNbrs = append(flatNbrs, gn...)
		for _, l := range ge {
			flatElabs = append(flatElabs, int32(l))
		}
	}
	nverts.i32s(nv)
	labels.i32s(flatLabels)
	offsets.i32s(flatOffsets)
	nbrs.i32s(flatNbrs)
	elabs.i32s(flatElabs)
	w.add("ds/names", names.b)
	w.add("ds/nverts", nverts.b)
	w.add("ds/labels", labels.b)
	w.add("ds/offsets", offsets.b)
	w.add("ds/nbrs", nbrs.b)
	w.add("ds/elabs", elabs.b)
}

// decodeDataset is the inverse of addDataset; every graph goes through
// graph.FromCSR, which re-validates the full structural invariant.
func decodeDataset(r *reader) ([]*graph.Graph, error) {
	namesB, err := r.section("ds/names")
	if err != nil {
		return nil, err
	}
	d := &dec{b: namesB}
	n := d.u64()
	if d.err == nil && n > uint64(len(namesB)) {
		return nil, fmt.Errorf("snapshot: ds/names: absurd graph count %d", n)
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		names = append(names, d.str())
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("snapshot: ds/names: %w", err)
	}
	arr := func(name string) ([]int32, error) {
		b, err := r.section(name)
		if err != nil {
			return nil, err
		}
		return decInt32s(b, name)
	}
	nverts, err := arr("ds/nverts")
	if err != nil {
		return nil, err
	}
	if len(nverts) != len(names) {
		return nil, fmt.Errorf("snapshot: %d vertex counts for %d graphs", len(nverts), len(names))
	}
	flatLabels, err := arr("ds/labels")
	if err != nil {
		return nil, err
	}
	flatOffsets, err := arr("ds/offsets")
	if err != nil {
		return nil, err
	}
	flatNbrs, err := arr("ds/nbrs")
	if err != nil {
		return nil, err
	}
	flatElabs, err := arr("ds/elabs")
	if err != nil {
		return nil, err
	}
	ds := make([]*graph.Graph, 0, len(names))
	var lOff, oOff, eOff int
	for i, name := range names {
		nv := int(nverts[i])
		if nv < 0 || lOff+nv > len(flatLabels) || oOff+nv+1 > len(flatOffsets) {
			return nil, fmt.Errorf("snapshot: graph %d (%q): vertex count %d exceeds flat arrays", i, name, nv)
		}
		offs := flatOffsets[oOff : oOff+nv+1]
		half := int(offs[nv])
		if half < 0 || eOff+half > len(flatNbrs) || eOff+half > len(flatElabs) {
			return nil, fmt.Errorf("snapshot: graph %d (%q): half-edge count %d exceeds flat arrays", i, name, half)
		}
		labels := make([]graph.Label, nv)
		for j, l := range flatLabels[lOff : lOff+nv] {
			labels[j] = graph.Label(l)
		}
		elabs := make([]graph.Label, half)
		for j, l := range flatElabs[eOff : eOff+half] {
			elabs[j] = graph.Label(l)
		}
		g, err := graph.FromCSR(name, labels, offs, flatNbrs[eOff:eOff+half], elabs)
		if err != nil {
			return nil, fmt.Errorf("snapshot: graph %d: %w", i, err)
		}
		ds = append(ds, g)
		lOff += nv
		oOff += nv + 1
		eOff += half
	}
	if lOff != len(flatLabels) || oOff != len(flatOffsets) || eOff != len(flatNbrs) || eOff != len(flatElabs) {
		return nil, fmt.Errorf("snapshot: trailing dataset array bytes (labels %d/%d, offsets %d/%d, edges %d/%d)", lOff, len(flatLabels), oOff, len(flatOffsets), eOff, len(flatNbrs))
	}
	return ds, nil
}

// addFeatures writes one sub-index's exported features as seven flat
// sections under prefix: per-feature label counts, the flat label sequence
// concatenation, per-feature posting counts, then the flat graph-ID / count
// / location-count / location arrays.
func addFeatures(w *writer, prefix string, feats []index.ExportedFeature) {
	var featlens, featlabels, postlens, postgids, postcnts, loclens, locs []int32
	for _, f := range feats {
		featlens = append(featlens, int32(len(f.Labels)))
		for _, l := range f.Labels {
			featlabels = append(featlabels, int32(l))
		}
		postlens = append(postlens, int32(len(f.Postings)))
		for _, p := range f.Postings {
			postgids = append(postgids, int32(p.GraphID))
			postcnts = append(postcnts, p.Count)
			loclens = append(loclens, int32(len(p.Locations)))
			locs = append(locs, p.Locations...)
		}
	}
	for _, s := range []struct {
		name string
		vals []int32
	}{
		{"featlens", featlens}, {"featlabels", featlabels},
		{"postlens", postlens}, {"postgids", postgids},
		{"postcnts", postcnts}, {"loclens", loclens}, {"locs", locs},
	} {
		var b buf
		b.i32s(s.vals)
		w.add(prefix+s.name, b.b)
	}
}

// decodeFeatures is the inverse of addFeatures, with full cross-array shape
// validation before any feature escapes.
func decodeFeatures(r *reader, prefix string) ([]index.ExportedFeature, error) {
	arr := func(name string) ([]int32, error) {
		b, err := r.section(prefix + name)
		if err != nil {
			return nil, err
		}
		return decInt32s(b, prefix+name)
	}
	featlens, err := arr("featlens")
	if err != nil {
		return nil, err
	}
	featlabels, err := arr("featlabels")
	if err != nil {
		return nil, err
	}
	postlens, err := arr("postlens")
	if err != nil {
		return nil, err
	}
	postgids, err := arr("postgids")
	if err != nil {
		return nil, err
	}
	postcnts, err := arr("postcnts")
	if err != nil {
		return nil, err
	}
	loclens, err := arr("loclens")
	if err != nil {
		return nil, err
	}
	locs, err := arr("locs")
	if err != nil {
		return nil, err
	}
	if len(postlens) != len(featlens) {
		return nil, fmt.Errorf("snapshot: %s: %d posting counts for %d features", prefix, len(postlens), len(featlens))
	}
	if len(postcnts) != len(postgids) || len(loclens) != len(postgids) {
		return nil, fmt.Errorf("snapshot: %s: posting arrays disagree (%d gids, %d counts, %d loclens)", prefix, len(postgids), len(postcnts), len(loclens))
	}
	feats := make([]index.ExportedFeature, 0, len(featlens))
	var labOff, postOff, locOff int
	for i, fl := range featlens {
		if fl < 0 || labOff+int(fl) > len(featlabels) {
			return nil, fmt.Errorf("snapshot: %s: feature %d label length %d exceeds flat array", prefix, i, fl)
		}
		labels := make([]graph.Label, fl)
		for j, l := range featlabels[labOff : labOff+int(fl)] {
			labels[j] = graph.Label(l)
		}
		labOff += int(fl)
		pl := int(postlens[i])
		if pl < 0 || postOff+pl > len(postgids) {
			return nil, fmt.Errorf("snapshot: %s: feature %d posting length %d exceeds flat array", prefix, i, pl)
		}
		postings := make([]index.FeaturePosting, pl)
		for j := 0; j < pl; j++ {
			ll := int(loclens[postOff+j])
			if ll < 0 || locOff+ll > len(locs) {
				return nil, fmt.Errorf("snapshot: %s: posting %d location length %d exceeds flat array", prefix, postOff+j, ll)
			}
			var pLocs []int32
			if ll > 0 {
				pLocs = locs[locOff : locOff+ll : locOff+ll]
			}
			locOff += ll
			postings[j] = index.FeaturePosting{
				GraphID:   int(postgids[postOff+j]),
				Count:     postcnts[postOff+j],
				Locations: pLocs,
			}
		}
		postOff += pl
		feats = append(feats, index.ExportedFeature{Labels: labels, Postings: postings})
	}
	if labOff != len(featlabels) || postOff != len(postgids) || locOff != len(locs) {
		return nil, fmt.Errorf("snapshot: %s: trailing feature array entries", prefix)
	}
	return feats, nil
}
