// Package ftv defines the contract shared by the filter-then-verify methods
// (Grapes, GGSX) and the path-feature utilities both build on. FTV methods
// solve the decision problem over a dataset of many graphs (§2.1 of the
// paper): an index over path features prunes the dataset down to a candidate
// set, and each candidate is then verified with VF2.
package ftv

import (
	"context"
	"encoding/binary"

	"github.com/psi-graph/psi/internal/graph"
)

// DefaultMaxPathLen follows the paper's setup: "for GGSX and Grapes, we
// enumerated paths of up to size of 4".
const DefaultMaxPathLen = 4

// Index is the filter-then-verify contract. Implementations are safe for
// concurrent queries once built.
type Index interface {
	// Name identifies the method as in the paper's figures, e.g.
	// "Grapes/4" or "GGSX".
	Name() string

	// Dataset returns the indexed graphs; Filter results and Verify's
	// graphID refer to positions in this slice.
	Dataset() []*graph.Graph

	// Filter returns the IDs of graphs that may contain q, in ascending
	// order. It must never prune a graph that actually contains q
	// (no false negatives); false positives are resolved by Verify.
	Filter(q *graph.Graph) []int

	// Verify decides whether q is subgraph-isomorphic to dataset graph
	// graphID. This is the "pure sub-iso time" stage the paper measures.
	Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error)
}

// Answer runs the full decision pipeline — filter, then verify every
// candidate sequentially — and returns the IDs of graphs containing q. It is
// the reference the streaming pipeline (index.StreamVerified and everything
// built on it) is tested against, not a serving path.
func Answer(ctx context.Context, x Index, q *graph.Graph) ([]int, error) {
	var out []int
	for _, id := range x.Filter(q) {
		ok, err := x.Verify(ctx, q, id)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, id)
		}
	}
	return out, nil
}

// Key is a comparable path-feature key. Label sequences of up to
// DefaultMaxPathLen edges (5 labels) whose labels all fit in 12 bits — true
// of every paper dataset, whose alphabets top out at 184 — pack into a
// single uint64 with zero allocation; longer sequences or larger labels
// fall back to the allocating string encoding of PathKey. The two forms
// never collide: packed keys are non-zero while fallback keys leave packed
// at zero.
type Key struct {
	packed uint64
	str    string
}

const (
	packedKeyLabels    = DefaultMaxPathLen + 1 // vertices on a 4-edge path
	packedKeyLabelBits = 12
	packedKeyLabelMax  = 1<<packedKeyLabelBits - 1
)

// MakeKey encodes a label sequence as a map key, packing when possible.
func MakeKey(labels []graph.Label) Key {
	if len(labels) <= packedKeyLabels {
		v := uint64(len(labels) + 1)
		for _, l := range labels {
			if uint32(l) > packedKeyLabelMax {
				return Key{str: PathKey(labels)}
			}
			v = v<<packedKeyLabelBits | uint64(l)
		}
		return Key{packed: v}
	}
	return Key{str: PathKey(labels)}
}

// Labels decodes the key back into its label sequence; used by diagnostics
// and tests.
func (k Key) Labels() []graph.Label {
	if k.packed == 0 {
		return DecodePathKey(k.str)
	}
	// The packed form is (len+1) << (12·len) | labels, so the length is
	// the unique n with packed >> (12·n) == n+1.
	for n := 0; n <= packedKeyLabels; n++ {
		if k.packed>>(packedKeyLabelBits*n) == uint64(n+1) {
			out := make([]graph.Label, n)
			v := k.packed
			for i := n - 1; i >= 0; i-- {
				out[i] = graph.Label(v & packedKeyLabelMax)
				v >>= packedKeyLabelBits
			}
			return out
		}
	}
	return nil
}

// PathKey encodes a label sequence as a string usable as a map key — the
// allocating fallback encoding behind MakeKey.
func PathKey(labels []graph.Label) string {
	buf := make([]byte, 4*len(labels))
	for i, l := range labels {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(l))
	}
	return string(buf)
}

// DecodePathKey inverts PathKey; used by diagnostics and tests.
func DecodePathKey(key string) []graph.Label {
	b := []byte(key)
	out := make([]graph.Label, len(b)/4)
	for i := range out {
		out[i] = graph.Label(binary.BigEndian.Uint32(b[4*i:]))
	}
	return out
}

// QueryFeature is a maximal path of the query with its occurrence count —
// what Grapes/GGSX look up in their indexes at query time.
type QueryFeature struct {
	Labels []graph.Label
	Count  int32
}

// QueryFeatures extracts the query's maximal paths (up to maxLen edges) and
// groups them by label sequence with occurrence counts. Occurrence counts of
// maximal paths are a lower bound on total path occurrences in any graph
// containing the query, so frequency pruning against indexed counts is
// sound.
func QueryFeatures(q *graph.Graph, maxLen int) map[Key]*QueryFeature {
	out := make(map[Key]*QueryFeature)
	for _, p := range q.MaximalPaths(maxLen) {
		lbls := q.LabelPath(p)
		key := MakeKey(lbls)
		f := out[key]
		if f == nil {
			f = &QueryFeature{Labels: lbls}
			out[key] = f
		}
		f.Count++
	}
	return out
}
