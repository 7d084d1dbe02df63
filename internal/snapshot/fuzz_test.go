package snapshot

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/match"
)

// fuzzSeeds are the three files FuzzSnapshotSections edits, written the way
// Engine.SaveSnapshot writes them — a store's ExportState, then Save — from
// a static engine's store at K = 1 and at K = 2 and from a mutable one at
// K = 2 churned to a tombstone. Built once per process.
var fuzzSeeds = sync.OnceValues(func() ([][]byte, error) {
	ds := testDataset(6)
	dir, err := os.MkdirTemp("", "fuzzsnap")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var files [][]byte
	for _, seed := range []struct {
		k       int
		mutable bool
	}{{1, false}, {2, false}, {2, true}} {
		st, err := live.NewStore(context.Background(), ds, live.Options{
			Kinds: []string{index.KindPath, "grapes", "ggsx"}, Shards: seed.k, CompactEvery: 100,
			Index: index.Options{MaxPathLen: 3},
		})
		if err != nil {
			return nil, err
		}
		if seed.mutable {
			if _, err = st.Add(context.Background(), ds[0]); err == nil {
				_, err = st.Remove(context.Background(), 2)
			}
		}
		path := filepath.Join(dir, "seed.psnap")
		if err == nil {
			err = st.ExportState(func(state live.State) error {
				return Save(path, &Model{Mutable: seed.mutable, State: state})
			})
		}
		st.Close()
		if err != nil {
			return nil, err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		files = append(files, b)
	}
	return files, nil
})

// sectionsOf splits a valid container into its sections, in table order.
func sectionsOf(data []byte) (names []string, payloads [][]byte) {
	d := &dec{b: data, off: len(magic) + 4}
	count := int(d.u32())
	for range count {
		names = append(names, d.str())
		off, n := d.u64(), d.u64()
		d.u32()
		payloads = append(payloads, data[off:off+n])
	}
	return names, payloads
}

// FuzzSnapshotSections edits one section payload of a saved snapshot — an
// xor of one byte, or a truncation — and re-frames the file with fresh
// section and table checksums, so the edit gets past the container's CRCs to
// the decoders, index.Restore's validators and live.Restore, the load path
// every dataset engine shares. The property: no panic, and a file that
// loads yields a store whose every answer is a subset of brute force over
// its own graphs — verification is exact, so a consistent but corrupted
// posting can only lose answers, never invent one.
func FuzzSnapshotSections(f *testing.F) {
	files, err := fuzzSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for i := range files {
		f.Add(uint8(i), uint8(0), uint32(0), byte(0), false)
	}
	// Found and fixed with this target: an element count 2^62 beyond the
	// payload passed a length check that multiplied (ds/labels), a shard
	// count near 2^31 sized allocations before any section was missed
	// (meta), and so did a path length near 2^31 at query time
	// (testdata/fuzz: meta's MaxPathLen words).
	f.Add(uint8(0), uint8(3), uint32(7), byte(0x40), false)
	f.Add(uint8(1), uint8(0), uint32(4), byte(0x7f), false)
	f.Add(uint8(2), uint8(7), uint32(9), byte(0x01), false) // live/alive
	f.Add(uint8(2), uint8(8), uint32(5), byte(0), true)     // live/handles
	f.Fuzz(func(t *testing.T, file, section uint8, off uint32, x byte, truncate bool) {
		names, payloads := sectionsOf(files[int(file)%len(files)])
		i := int(section) % len(names)
		p := slices.Clone(payloads[i])
		switch {
		case truncate:
			p = p[:int(off%uint32(len(p)+1))]
		case len(p) > 0:
			p[int(off%uint32(len(p)))] ^= x
		}
		w := &writer{}
		for j, name := range names {
			if j == i {
				w.add(name, p)
			} else {
				w.add(name, payloads[j])
			}
		}
		path := filepath.Join(t.TempDir(), "f.psnap")
		if err := w.writeFile(path); err != nil {
			t.Fatal(err)
		}
		untouched := !truncate && x == 0
		m, err := Load(path, index.Options{})
		if err != nil {
			if untouched {
				t.Fatalf("an untouched seed does not load: %v", err)
			}
			return
		}
		st, err := live.Restore(m.State, 0, index.Options{})
		if err != nil {
			if untouched {
				t.Fatalf("an untouched seed does not restore: %v", err)
			}
			for _, subs := range m.Grid {
				for _, sub := range subs {
					sub.Close()
				}
			}
			return
		}
		defer st.Close()
		snap := st.Current()
		graphs := snap.Graphs()
		for _, q := range fuzzQueries(graphs) {
			var truth []int
			for id, g := range graphs {
				if embs, err := match.NewReference(g).Match(context.Background(), q, 1); err != nil {
					t.Fatal(err)
				} else if len(embs) > 0 {
					truth = append(truth, id)
				}
			}
			for i, kind := range m.Kinds {
				got, err := index.Answer(context.Background(), snap.Indexes()[i], q, nil)
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				for _, id := range got {
					if _, ok := slices.BinarySearch(truth, id); !ok {
						t.Fatalf("%s answers graph %d for %v; brute force says %v", kind, id, q, truth)
					}
				}
			}
		}
	})
}

// fuzzQueries are the probes of a loaded store: its first two graphs whole
// (each contains itself), one labelled edge, and one vertex.
func fuzzQueries(graphs []*graph.Graph) []*graph.Graph {
	qs := []*graph.Graph{
		graph.MustNew("edge", []graph.Label{0, 1}, [][2]int{{0, 1}}),
		graph.MustNew("vertex", []graph.Label{2}, nil),
	}
	for _, g := range graphs[:min(2, len(graphs))] {
		qs = append(qs, g)
	}
	return qs
}

// TestSectionsOfReframesSeeds pins the fuzz target's framing: an untouched
// seed, split by sectionsOf and re-framed, is the seed byte for byte.
func TestSectionsOfReframesSeeds(t *testing.T) {
	files, err := fuzzSeeds()
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range files {
		names, payloads := sectionsOf(data)
		w := &writer{}
		for j := range names {
			w.add(names[j], payloads[j])
		}
		path := filepath.Join(t.TempDir(), "s.psnap")
		if err := w.writeFile(path); err != nil {
			t.Fatal(err)
		}
		again, _ := os.ReadFile(path)
		if !slices.Equal(again, data) {
			t.Errorf("seed %d does not re-frame to its own bytes", i)
		}
	}
}
