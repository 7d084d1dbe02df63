// Package rewrite implements the isomorphic query rewritings of §6 of the
// paper. A rewriting renumbers a query's vertices, keeping it isomorphic to
// the original (Definition 2), to present them to an algorithm's tie-breaking
// heuristics in a different, hopefully cheaper, order. It is a vertex
// ranking, and Compute's permutation is its one product: match.Ranked
// searches the caller's query under it, so nothing is mapped back. The
// renumbered copy the paper's §5 and §6 time is Graph.MustPermute of it.
package rewrite

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/psi-graph/psi/internal/graph"
)

// Kind identifies a rewriting strategy.
type Kind uint8

const (
	// Orig leaves the query untouched (identity permutation).
	Orig Kind = iota
	// ILF (Increasing Label Frequency) assigns low node IDs to vertices
	// whose labels are infrequent in the stored graph.
	ILF
	// IND (Increasing Node Degree) assigns low node IDs to low-degree
	// query vertices.
	IND
	// DND (Decreasing Node Degree) assigns low node IDs to high-degree
	// query vertices.
	DND
	// ILFIND is ILF with ties broken in IND manner.
	ILFIND
	// ILFDND is ILF with ties broken in DND manner.
	ILFDND
	// Random applies a uniformly random permutation (used in §5 to study
	// the runtime variance of isomorphic query instances).
	Random
)

// Structured lists the five deterministic rewritings proposed in §6, in the
// order the paper presents them.
var Structured = []Kind{ILF, IND, DND, ILFIND, ILFDND}

// String returns the paper's name for the rewriting.
func (k Kind) String() string {
	switch k {
	case Orig:
		return "Orig"
	case ILF:
		return "ILF"
	case IND:
		return "IND"
	case DND:
		return "DND"
	case ILFIND:
		return "ILF+IND"
	case ILFDND:
		return "ILF+DND"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a paper-style name (as produced by String) back to a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Orig, ILF, IND, DND, ILFIND, ILFDND, Random} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("rewrite: unknown rewriting %q", s)
}

// Frequencies maps a vertex label to its number of occurrences in the stored
// graph (or, for FTV datasets, across the whole dataset). ILF-style
// rewritings consult it; labels absent from the map count as frequency 0,
// i.e. they sort first, which is the conservative choice: a label unseen in
// the stored graph is maximally selective.
type Frequencies map[graph.Label]int

// FrequenciesOf computes label frequencies for a single stored graph.
func FrequenciesOf(g *graph.Graph) Frequencies {
	return Frequencies(g.LabelFrequencies())
}

// FrequenciesOfDataset computes label frequencies across a dataset.
func FrequenciesOfDataset(gs []*graph.Graph) Frequencies {
	f := make(Frequencies)
	for _, g := range gs {
		for l, c := range g.LabelFrequencies() {
			f[l] += c
		}
	}
	return f
}

// Compute returns the node-ID permutation (perm[old] = new) realizing the
// rewriting k of query q against a stored graph with label frequencies f.
// The seed is used only by Random. Ties beyond each rewriting's declared
// keys are broken by original node ID, making every rewriting deterministic
// (the paper breaks ties "arbitrarily"; a fixed arbitrary choice keeps runs
// reproducible).
func Compute(q *graph.Graph, f Frequencies, k Kind, seed int64) graph.Permutation {
	n := q.N()
	switch k {
	case Orig:
		return graph.Identity(n)
	case Random:
		return graph.Permutation(rand.New(rand.NewSource(seed)).Perm(n))
	}
	order := make([]int, n) // order[rank] = old vertex ID
	for i := range order {
		order[i] = i
	}
	freq := func(v int) int { return f[q.Label(v)] }
	deg := q.Degree
	less := func(a, b int) bool { return a < b }
	switch k {
	case ILF:
		less = func(a, b int) bool {
			if freq(a) != freq(b) {
				return freq(a) < freq(b)
			}
			return a < b
		}
	case IND:
		less = func(a, b int) bool {
			if deg(a) != deg(b) {
				return deg(a) < deg(b)
			}
			return a < b
		}
	case DND:
		less = func(a, b int) bool {
			if deg(a) != deg(b) {
				return deg(a) > deg(b)
			}
			return a < b
		}
	case ILFIND:
		less = func(a, b int) bool {
			if freq(a) != freq(b) {
				return freq(a) < freq(b)
			}
			if deg(a) != deg(b) {
				return deg(a) < deg(b)
			}
			return a < b
		}
	case ILFDND:
		less = func(a, b int) bool {
			if freq(a) != freq(b) {
				return freq(a) < freq(b)
			}
			if deg(a) != deg(b) {
				return deg(a) > deg(b)
			}
			return a < b
		}
	}
	sort.Slice(order, func(i, j int) bool { return less(order[i], order[j]) })
	perm := make(graph.Permutation, n)
	for rank, old := range order {
		perm[old] = rank
	}
	return perm
}
