// Package ftv defines the contract shared by the filter-then-verify methods
// (Grapes, GGSX) and the path-feature utilities both build on. FTV methods
// solve the decision problem over a dataset of many graphs (§2.1 of the
// paper): an index over path features prunes the dataset down to a candidate
// set, and each candidate is then verified with VF2.
package ftv

import (
	"context"
	"slices"

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

// Oriented reports whether labels is the oriented spelling of its path: an
// undirected path reads as a label sequence L from one end and as reverse(L)
// from the other, it occurs equally often under both (reversing an
// occurrence's vertices is a bijection between them) and the two touch the
// same vertices, so an index stores the path once, under the spelling that is
// lexicographically no larger. A palindrome is its own mirror and oriented.
func Oriented(labels []graph.Label) bool {
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		if labels[i] != labels[j] {
			return labels[i] < labels[j]
		}
	}
	return true
}

// QueryFeature is a maximal path of the query, under its oriented spelling,
// with the number of occurrences a graph containing the query must have —
// what every path index looks up at query time.
type QueryFeature struct {
	Labels []graph.Label
	Count  int32
}

// QueryFeatures extracts the query's maximal paths of up to maxLen edges — a
// DFS path from any start vertex that cannot be extended, because every
// neighbour of its last vertex is on it or it has maxLen edges — and groups
// them by label sequence. The number of maximal paths spelling L is a lower
// bound on the occurrences of L in any graph containing the query, so
// frequency pruning against indexed counts is sound. Maximality depends on
// the end a path is walked from, so a query may spell L more often than
// reverse(L); a graph has both equally often (Oriented), so the two fold into
// one feature under the oriented spelling whose count is the larger of the
// two — the same pruning at one lookup. The features come in canonical
// (lexicographic) order.
//
// A query has a few hundred maximal paths at most, so they are not interned
// as a graph's millions are: every one is written out under its oriented
// spelling, and a sort brings equal spellings together.
func QueryFeatures(q *graph.Graph, maxLen int) []QueryFeature {
	// A simple path visits at most every vertex: maxLen, which may come from
	// a snapshot file, sizes nothing beyond that.
	w := queryWalk{q: q, maxLen: maxLen, onPath: make([]bool, q.N()), path: make([]graph.Label, 0, min(maxLen+1, q.N()))}
	for v := 0; v < q.N(); v++ {
		w.descend(int32(v))
	}
	slices.SortFunc(w.found, func(a, b maximalPath) int {
		return slices.Compare(w.labels[a.from:a.to], w.labels[b.from:b.to])
	})
	var out []QueryFeature
	for i := 0; i < len(w.found); {
		f := w.found[i]
		labels := w.labels[f.from:f.to:f.to]
		var asWalked, mirrored int32
		for ; i < len(w.found) && slices.Equal(w.labels[w.found[i].from:w.found[i].to], labels); i++ {
			if w.found[i].mirrored {
				mirrored++
			} else {
				asWalked++
			}
		}
		out = append(out, QueryFeature{Labels: labels, Count: max(asWalked, mirrored)})
	}
	return out
}

// queryWalk is QueryFeatures' DFS. It is not the extractor's: a maximal path
// is known only once its node turns out to have no children.
type queryWalk struct {
	q      *graph.Graph
	maxLen int
	onPath []bool
	path   []graph.Label // the labels from the start vertex to the current one

	labels []graph.Label // the maximal paths found, each under its oriented spelling
	found  []maximalPath
}

// maximalPath is one maximal path: labels[from:to] of its queryWalk, and
// whether that is the path as walked or its mirror.
type maximalPath struct {
	from, to int32
	mirrored bool
}

// descend steps onto v.
func (w *queryWalk) descend(v int32) {
	w.path = append(w.path, w.q.Label(int(v)))
	extended := false
	if len(w.path) <= w.maxLen {
		w.onPath[v] = true
		for _, u := range w.q.Neighbors(int(v)) {
			if !w.onPath[u] {
				extended = true
				w.descend(u)
			}
		}
		w.onPath[v] = false
	}
	if !extended && len(w.path) > 1 {
		from := len(w.labels)
		w.labels = append(w.labels, w.path...)
		mirrored := !Oriented(w.path)
		if mirrored {
			slices.Reverse(w.labels[from:])
		}
		w.found = append(w.found, maximalPath{from: int32(from), to: int32(len(w.labels)), mirrored: mirrored})
	}
	w.path = w.path[:len(w.path)-1]
}
