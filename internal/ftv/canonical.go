package ftv

import (
	"fmt"
	"sort"
	"strings"

	"github.com/psi-graph/psi/internal/graph"
)

// CanonicalKey serializes q after a deterministic structure-driven vertex
// ordering. It is *not* a complete canonical form (graph canonization is
// GI-hard): isomorphic queries may receive different keys — a missed hit,
// never a wrong one — while unequal keys always denote unequal serialized
// structures, so exact hits are sound.
func CanonicalKey(q *graph.Graph) string {
	n := q.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sig := make([]string, n)
	for v := 0; v < n; v++ {
		nb := make([]graph.Label, 0, q.Degree(v))
		for _, w := range q.Neighbors(v) {
			nb = append(nb, q.Label(int(w)))
		}
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		sig[v] = fmt.Sprintf("%d|%d|%v", q.Label(v), q.Degree(v), nb)
	}
	sort.Slice(order, func(i, j int) bool {
		if sig[order[i]] != sig[order[j]] {
			return sig[order[i]] < sig[order[j]]
		}
		return order[i] < order[j]
	})
	rank := make([]int, n)
	for r, v := range order {
		rank[v] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n%d;", n)
	for _, v := range order {
		fmt.Fprintf(&b, "v%d;", q.Label(v))
	}
	edges := make([][3]int, 0, q.M())
	q.LabeledEdges(func(u, v int, l graph.Label) {
		a, z := rank[u], rank[v]
		if a > z {
			a, z = z, a
		}
		edges = append(edges, [3]int{a, z, int(l)})
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		if edges[i][1] != edges[j][1] {
			return edges[i][1] < edges[j][1]
		}
		return edges[i][2] < edges[j][2]
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "e%d,%d,%d;", e[0], e[1], e[2])
	}
	return b.String()
}
