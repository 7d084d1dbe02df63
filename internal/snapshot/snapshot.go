package snapshot

import (
	"errors"
	"fmt"
	"slices"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
)

// Model is the serialized shape of a dataset engine: the state of the
// dataset store it serves from — graphs in slot space, liveness, handles,
// tombstone and epoch counters, and the per-shard tables — with no path
// enumeration on the load side. The file holds one section group per listed
// name and shard, all written from the one table: with locations under
// "grapes", without under "ftv" and "ggsx". On Load each table is freshly
// restored over its shard's sub-dataset from the "grapes" section when
// listed, else from the first name's.
//
// A static engine's store never mutates, so its state follows from its
// graphs and shard count (neverMutated): every slot alive, handles 1..n, next
// handle n+1, epoch 1, no tombstones. A static file leaves that state out —
// no live/* sections, zero epoch and next-handle words in the meta section —
// so it keeps the bytes static files had before static engines served from
// a store, and Load fills the state back in.
type Model struct {
	// Mutable records whether the snapshot came from a mutable engine; a
	// load must run in the same mode.
	Mutable bool
	live.State
}

// neverMutated is the state of a store that never mutated over s's graphs
// and shards: what a static file leaves out.
func neverMutated(s live.State) live.State {
	n := len(s.SlotGraphs)
	s.Epoch, s.NextHandle = 1, live.Handle(n+1)
	s.Alive, s.Handles, s.Tombs = make([]bool, n), make([]live.Handle, n), make([]int, s.Shards)
	for i := range n {
		s.Alive[i], s.Handles[i] = true, live.Handle(i+1)
	}
	return s
}

// check is the shape Save and Load both demand of a model.
func (m *Model) check() error {
	if m.Shards < 1 {
		return fmt.Errorf("snapshot: shard count %d < 1", m.Shards)
	}
	if len(m.Kinds) == 0 {
		return errors.New("snapshot: no index kinds")
	}
	if n := len(m.SlotGraphs); len(m.Alive) != n || len(m.Handles) != n {
		return fmt.Errorf("snapshot: slot arrays disagree: %d graphs, %d alive, %d handles", n, len(m.Alive), len(m.Handles))
	}
	if len(m.Tombs) != m.Shards {
		return fmt.Errorf("snapshot: %d tombstone counters for %d shards", len(m.Tombs), m.Shards)
	}
	return nil
}

// Save serializes the model to path atomically (temp file + rename): a crash
// mid-save leaves any previous snapshot at path intact. The serialized bytes
// are deterministic for a given model — features are written in canonical
// (lexicographic) order with ascending-ID postings.
func Save(path string, m *Model) error {
	if err := m.check(); err != nil {
		return err
	}
	epoch, next := m.Epoch, uint64(m.NextHandle)
	if !m.Mutable {
		p := neverMutated(m.State)
		if epoch != p.Epoch || m.NextHandle != p.NextHandle || !slices.Equal(m.Alive, p.Alive) ||
			!slices.Equal(m.Handles, p.Handles) || !slices.Equal(m.Tombs, p.Tombs) {
			return errors.New("snapshot: a static model must hold a never-mutated store's state, which its file leaves out")
		}
		epoch, next = 0, 0
	}

	// Export every table first: the MaxPathLen lands in the meta section,
	// which is written ahead of the feature arrays.
	if len(m.Tables) != m.Shards {
		return fmt.Errorf("snapshot: %d tables for %d shards", len(m.Tables), m.Shards)
	}
	if slices.Contains(m.Kinds, index.KindGrapes) && m.Tables[0].Stats().Kind != index.KindGrapes {
		return fmt.Errorf("snapshot: the %s table keeps no locations for the %q section", m.Tables[0].Stats().Kind, index.KindGrapes)
	}
	maxLen := 0
	shardFeats := make([][]index.ExportedFeature, m.Shards)
	for s, t := range m.Tables {
		feats, ml, err := index.Export(t)
		if err != nil {
			return fmt.Errorf("snapshot: exporting shard %d: %w", s, err)
		}
		if s > 0 && ml != maxLen {
			return fmt.Errorf("snapshot: shards disagree on MaxPathLen (%d vs %d)", maxLen, ml)
		}
		maxLen, shardFeats[s] = ml, feats
	}

	w := &writer{}
	var meta buf
	meta.bool(m.Mutable)
	meta.u32(uint32(m.Shards))
	meta.u64(epoch)
	meta.u64(next)
	meta.u32(uint32(len(m.Kinds)))
	for _, kind := range m.Kinds {
		meta.str(kind)
		meta.u32(uint32(maxLen))
	}
	w.add("meta", meta.b)
	addDataset(w, m.SlotGraphs)
	if m.Mutable {
		var alive, handles, tombs buf
		alive.bools(m.Alive)
		i64s(&handles, m.Handles)
		i32s(&tombs, m.Tombs)
		w.add("live/alive", alive.b)
		w.add("live/handles", handles.b)
		w.add("live/tombs", tombs.b)
	}
	for _, kind := range m.Kinds {
		for s, feats := range shardFeats {
			addFeatures(w, ixPrefix(kind, s), feats, kind == index.KindGrapes)
		}
	}
	return w.writeFile(path)
}

// Load validates and deserializes a snapshot, restoring every graph (through
// graph.FromCSR's full structural validation) and every per-shard table.
// Every listed section is decoded and checked (index.CheckFeatures), so a
// malformed one fails the load even when its table is restored from
// another. ixOpts carries the runtime knobs of the restored tables (Workers,
// Pool); layout-affecting parameters (MaxPathLen, shard count) come from the
// file. Any failure — checksum, shape, structural — returns before any state
// escapes: never a partial engine.
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
	m = &Model{Mutable: d.bool()}
	m.Shards = int(d.u32())
	m.Epoch = d.u64()
	m.NextHandle = live.Handle(d.u64())
	nKinds := int(d.u32())
	if d.err == nil && nKinds > maxSections {
		return nil, fmt.Errorf("snapshot: absurd kind count %d", nKinds)
	}
	maxLen := map[string]int{}
	for i := 0; i < nKinds && d.err == nil; i++ {
		kind := d.str()
		if _, dup := maxLen[kind]; dup {
			return nil, fmt.Errorf("snapshot: meta: kind %q listed twice", kind)
		}
		m.Kinds = append(m.Kinds, kind)
		maxLen[kind] = int(d.u32())
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("snapshot: meta: %w", err)
	}
	if m.Shards > len(r.sections) {
		// Every shard has sections of its own; a count beyond the table is
		// corruption, and would size the allocations below.
		return nil, fmt.Errorf("snapshot: absurd shard count %d for %d sections", m.Shards, len(r.sections))
	}
	if m.SlotGraphs, err = decodeDataset(r); err != nil {
		return nil, err
	}
	if m.Mutable {
		if m.Alive, err = decodeSection(r, "live/alive", decBools); err != nil {
			return nil, err
		}
		if m.Handles, err = decodeSection(r, "live/handles", decInt64s[live.Handle]); err != nil {
			return nil, err
		}
		if m.Tombs, err = decodeSection(r, "live/tombs", decInt32s[int]); err != nil {
			return nil, err
		}
	} else {
		m.State = neverMutated(m.State)
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	from := index.TableKind(m.Kinds)
	m.Tables = make([]*index.Path, m.Shards)
	for s := range m.Tables {
		subDS := index.ShardDataset(m.SlotGraphs, s, m.Shards)
		var keep []index.ExportedFeature
		for _, kind := range m.Kinds {
			feats, err := decodeFeatures(r, ixPrefix(kind, s))
			if err == nil {
				feats, err = index.CheckFeatures(kind, subDS, feats)
			}
			if err != nil {
				return nil, fmt.Errorf("snapshot: restoring %s shard %d: %w", kind, s, err)
			}
			if kind == from {
				keep = feats
			}
		}
		m.Tables[s] = index.RestorePath(from, subDS, maxLen[from], ixOpts, keep)
	}
	return m, nil
}

// decodeSection decodes the named section with decode.
func decodeSection[T any](r *reader, name string, decode func(payload []byte, what string) (T, error)) (T, error) {
	b, err := r.section(name)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(b, name)
}

// ixPrefix names the section group of one (kind, shard) table.
func ixPrefix(kind string, shard int) string {
	return fmt.Sprintf("ix/%s/%d/", kind, shard)
}

// addDataset writes the dataset as six flat sections: per-graph names and
// vertex counts, then the concatenation of every graph's CSR arrays. Each is
// one contiguous length-prefixed array — the mmap-forward contract.
func addDataset(w *writer, ds []*graph.Graph) {
	var names, nverts, labels, offsets, nbrs, elabs buf
	names.u64(uint64(len(ds)))
	var nv, flatOffsets, flatNbrs []int32
	var flatLabels, flatElabs []graph.Label
	for _, g := range ds {
		names.str(g.Name())
		gl, goffs, gn, ge := g.CSR()
		nv = append(nv, int32(len(gl)))
		flatLabels = append(flatLabels, gl...)
		flatOffsets = append(flatOffsets, goffs...)
		flatNbrs = append(flatNbrs, gn...)
		flatElabs = append(flatElabs, ge...)
	}
	i32s(&nverts, nv)
	i32s(&labels, flatLabels)
	i32s(&offsets, flatOffsets)
	i32s(&nbrs, flatNbrs)
	i32s(&elabs, flatElabs)
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
	arr := func(name string) ([]int32, error) { return decodeSection(r, name, decInt32s[int32]) }
	nverts, err := arr("ds/nverts")
	if err != nil {
		return nil, err
	}
	if len(nverts) != len(names) {
		return nil, fmt.Errorf("snapshot: %d vertex counts for %d graphs", len(nverts), len(names))
	}
	flatLabels, err := decodeSection(r, "ds/labels", decInt32s[graph.Label])
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
	flatElabs, err := decodeSection(r, "ds/elabs", decInt32s[graph.Label])
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
		labels, elabs := slices.Clone(flatLabels[lOff:lOff+nv]), slices.Clone(flatElabs[eOff:eOff+half])
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

// addFeatures writes one table's exported features as seven flat sections
// under prefix: per-feature label counts, the flat label sequence
// concatenation, per-feature posting counts, then the flat graph-ID / count
// / location-count / location arrays, every location count 0 without
// locations.
func addFeatures(w *writer, prefix string, feats []index.ExportedFeature, locations bool) {
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
			if !locations {
				loclens = append(loclens, 0)
				continue
			}
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
		i32s(&b, s.vals)
		w.add(prefix+s.name, b.b)
	}
}

// decodeFeatures is the inverse of addFeatures, with full cross-array shape
// validation before any feature escapes.
func decodeFeatures(r *reader, prefix string) ([]index.ExportedFeature, error) {
	arr := func(name string) ([]int32, error) { return decodeSection(r, prefix+name, decInt32s[int32]) }
	featlens, err := arr("featlens")
	if err != nil {
		return nil, err
	}
	featlabels, err := decodeSection(r, prefix+"featlabels", decInt32s[graph.Label])
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
		labels := slices.Clone(featlabels[labOff : labOff+int(fl)])
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
