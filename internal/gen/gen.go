// Package gen provides the dataset generators that stand in for the paper's
// datasets. Two families:
//
//   - FTV datasets (many graphs): Synthetic reproduces the parameter surface
//     of GraphGen (#graphs, average nodes, density, #labels) used for the
//     paper's synthetic dataset; PPI reproduces the shape of the paper's
//     20-network protein–protein interaction dataset (Table 1).
//
//   - NFV datasets (one large graph): Single is a configurable generator
//     combining preferential attachment (degree skew) with Zipf-distributed
//     labels (label-frequency skew); YeastLike, HumanLike and WordnetLike
//     are presets matching the Table 2 shapes at several scales.
//
// All generators are deterministic given a seed.
package gen

import (
	"fmt"
	"math/rand"

	"github.com/psi-graph/psi/internal/graph"
)

// Scale selects how large the generated datasets are. The paper's absolute
// sizes (Paper) are reproducible but slow; the smaller scales preserve the
// structural ratios (density, label skew, degree skew) while keeping test
// and benchmark runtimes sane.
type Scale int

const (
	// Tiny is for unit tests: seconds for the full pipeline.
	Tiny Scale = iota
	// Small is the default benchmark scale.
	Small
	// Medium is for longer experiment runs (cmd/psibench -scale medium).
	Medium
	// Paper matches the paper's dataset sizes (Tables 1 and 2).
	Paper
)

// ParseScale converts a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("gen: unknown scale %q (want tiny|small|medium|paper)", s)
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Dataset generates the dataset a command line names, at scale from seed:
// synthetic and ppi are FTV datasets, yeast, human and wordnet one graph.
func Dataset(name string, scale Scale, seed int64) ([]*graph.Graph, error) {
	switch name {
	case "synthetic":
		return Synthetic(SyntheticAt(scale), seed), nil
	case "ppi":
		return PPI(PPIAt(scale), seed), nil
	case "yeast":
		return []*graph.Graph{YeastLike(scale, seed)}, nil
	case "human":
		return []*graph.Graph{HumanLike(scale, seed)}, nil
	case "wordnet":
		return []*graph.Graph{WordnetLike(scale, seed)}, nil
	}
	return nil, fmt.Errorf("gen: unknown dataset %q (want synthetic|ppi|yeast|human|wordnet)", name)
}

// SyntheticConfig mirrors GraphGen's parameters as described in §3.3 of the
// paper: "number of graphs, average number of nodes and density per graph,
// number of labels in the dataset".
type SyntheticConfig struct {
	NumGraphs  int
	AvgNodes   int
	NodeSpread int // uniform ± spread around AvgNodes
	Density    float64
	Labels     int
}

// SyntheticAt returns the synthetic-dataset configuration for a scale.
// At Paper scale it matches Table 1: 1000 graphs, 1100 avg nodes, density
// 0.020, 20 labels.
func SyntheticAt(scale Scale) SyntheticConfig {
	// Label alphabets shrink with graph size so per-label frequency (the
	// quantity that drives sub-iso hardness) stays in a realistic band.
	switch scale {
	case Tiny:
		return SyntheticConfig{NumGraphs: 8, AvgNodes: 70, NodeSpread: 20, Density: 0.10, Labels: 4}
	case Small:
		return SyntheticConfig{NumGraphs: 16, AvgNodes: 120, NodeSpread: 40, Density: 0.07, Labels: 5}
	case Medium:
		return SyntheticConfig{NumGraphs: 40, AvgNodes: 300, NodeSpread: 120, Density: 0.04, Labels: 10}
	default:
		return SyntheticConfig{NumGraphs: 1000, AvgNodes: 1100, NodeSpread: 480, Density: 0.020, Labels: 20}
	}
}

// Synthetic generates a GraphGen-style dataset: each graph is connected
// (spanning tree plus random edges up to the target density) with uniform
// labels.
func Synthetic(cfg SyntheticConfig, seed int64) []*graph.Graph {
	r := rand.New(rand.NewSource(seed))
	ds := make([]*graph.Graph, cfg.NumGraphs)
	for i := range ds {
		n := cfg.AvgNodes
		if cfg.NodeSpread > 0 {
			n += r.Intn(2*cfg.NodeSpread+1) - cfg.NodeSpread
		}
		if n < 2 {
			n = 2
		}
		m := int(cfg.Density * float64(n) * float64(n-1) / 2)
		if m < n-1 {
			m = n - 1 // keep connectivity
		}
		ds[i] = connectedRandom(r, fmt.Sprintf("synthetic-%04d", i), n, m, func() graph.Label {
			return graph.Label(r.Intn(cfg.Labels))
		})
	}
	return ds
}

// PPIConfig shapes the protein-interaction-style dataset of Table 1.
type PPIConfig struct {
	NumGraphs   int
	AvgNodes    int
	NodeSpread  int
	AvgDegree   float64
	Labels      int     // dataset-wide label alphabet
	LabelsPer   int     // distinct labels per graph (~28.5 of 46 in Table 1)
	IsolatedPct float64 // fraction of vertices left isolated => disconnected graphs
}

// PPIAt returns the PPI-dataset configuration for a scale. At Paper scale it
// matches Table 1: 20 graphs, 4942±2648 nodes, avg degree 10.87, 46 labels.
func PPIAt(scale Scale) PPIConfig {
	// Smaller scales share the whole (shrunken) label alphabet between
	// graphs so the filter passes enough candidate pairs for straggler
	// behaviour to show; Paper scale restores Table 1's 28.5-of-46
	// per-graph subsets.
	switch scale {
	case Tiny:
		return PPIConfig{NumGraphs: 4, AvgNodes: 130, NodeSpread: 30, AvgDegree: 8, Labels: 4, LabelsPer: 4, IsolatedPct: 0.02}
	case Small:
		return PPIConfig{NumGraphs: 8, AvgNodes: 220, NodeSpread: 70, AvgDegree: 8, Labels: 6, LabelsPer: 5, IsolatedPct: 0.02}
	case Medium:
		return PPIConfig{NumGraphs: 20, AvgNodes: 500, NodeSpread: 250, AvgDegree: 9, Labels: 18, LabelsPer: 12, IsolatedPct: 0.02}
	default:
		return PPIConfig{NumGraphs: 20, AvgNodes: 4942, NodeSpread: 2648, AvgDegree: 10.87, Labels: 46, LabelsPer: 28, IsolatedPct: 0.02}
	}
}

// PPI generates the protein-interaction-style dataset: sparse graphs, a
// per-graph label subset, and a small fraction of isolated vertices so the
// graphs are disconnected, as all 20 PPI networks are in Table 1.
func PPI(cfg PPIConfig, seed int64) []*graph.Graph {
	r := rand.New(rand.NewSource(seed))
	ds := make([]*graph.Graph, cfg.NumGraphs)
	for i := range ds {
		n := cfg.AvgNodes
		if cfg.NodeSpread > 0 {
			n += r.Intn(2*cfg.NodeSpread+1) - cfg.NodeSpread
		}
		if n < 4 {
			n = 4
		}
		// per-graph label subset
		perm := r.Perm(cfg.Labels)
		sub := perm[:cfg.LabelsPer]
		isolated := int(float64(n) * cfg.IsolatedPct)
		if isolated < 1 {
			isolated = 1
		}
		connected := n - isolated
		m := int(cfg.AvgDegree * float64(n) / 2)
		if m < connected-1 {
			m = connected - 1
		}
		b := graph.NewBuilder(fmt.Sprintf("ppi-%02d", i))
		for v := 0; v < n; v++ {
			b.AddVertex(graph.Label(sub[r.Intn(len(sub))]))
		}
		// spanning tree over the non-isolated prefix, then random extras
		for v := 1; v < connected; v++ {
			mustAdd(b, r.Intn(v), v)
		}
		added := connected - 1
		for tries := 0; added < m && tries < 20*m; tries++ {
			u, v := r.Intn(connected), r.Intn(connected)
			if u != v && !b.HasEdgePending(u, v) {
				mustAdd(b, u, v)
				added++
			}
		}
		ds[i] = b.MustBuild()
	}
	return ds
}

// connectedRandom builds one connected random graph with n vertices and m
// edges (m ≥ n-1), labels drawn from labelFn.
func connectedRandom(r *rand.Rand, name string, n, m int, labelFn func() graph.Label) *graph.Graph {
	b := graph.NewBuilder(name)
	for v := 0; v < n; v++ {
		b.AddVertex(labelFn())
	}
	type edge struct{ u, v int }
	seen := make(map[[2]int]bool, m)
	addEdge := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return false
		}
		seen[[2]int{u, v}] = true
		mustAdd(b, u, v)
		return true
	}
	for v := 1; v < n; v++ {
		addEdge(r.Intn(v), v)
	}
	added := n - 1
	for tries := 0; added < m && tries < 30*m; tries++ {
		if addEdge(r.Intn(n), r.Intn(n)) {
			added++
		}
	}
	return b.MustBuild()
}

func mustAdd(b *graph.Builder, u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}
