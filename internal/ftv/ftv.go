// Package ftv holds path features and their extraction: the label paths of
// up to DefaultMaxPathLen edges every filter-then-verify index of the paper
// (its flat FTV baseline, Grapes, GGSX) is folded from, a query's maximal
// paths (QueryFeatures), and Grapes' location sets (LocSets).
//
// Orientation: an undirected path reads as a label sequence L from one end
// and as reverse(L) from the other, and every graph holds both spellings
// equally often over the same vertices, so a path is stored once, under its
// oriented spelling (Oriented). The extractor still meets every path from
// both ends: it keeps a path's count where the path reads as its oriented
// spelling and, for a full-length path, takes into that feature's location
// set the vertices met from the other end as well, so each end need only see
// the path's first maxLen-1 vertices wherever that pays (extract.go). A query folds its two
// spellings into one feature requiring the larger count (QueryFeatures). Orientation picks the spelling of one feature; "canonical
// order" is the lexicographic order of features among themselves
// (LabelTrie.Walk). They are different things.
package ftv

import (
	"slices"

	"github.com/psi-graph/psi/internal/graph"
)

// DefaultMaxPathLen follows the paper's setup: "for GGSX and Grapes, we
// enumerated paths of up to size of 4".
const DefaultMaxPathLen = 4

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
