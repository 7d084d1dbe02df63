package gen

import (
	"math"
	"strings"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
)

func TestParseScale(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Medium, Paper} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("expected error for unknown scale")
	}
	if Scale(42).String() == "" {
		t.Error("unknown scale should still stringify")
	}
}

func TestSyntheticShape(t *testing.T) {
	cfg := SyntheticAt(Tiny)
	ds := Synthetic(cfg, 1)
	if len(ds) != cfg.NumGraphs {
		t.Fatalf("got %d graphs, want %d", len(ds), cfg.NumGraphs)
	}
	st := graph.ComputeDatasetStats("synthetic", ds)
	if st.Labels > cfg.Labels {
		t.Errorf("labels = %d > %d", st.Labels, cfg.Labels)
	}
	if math.Abs(st.AvgNodes-float64(cfg.AvgNodes)) > float64(cfg.NodeSpread) {
		t.Errorf("avg nodes %.1f too far from %d", st.AvgNodes, cfg.AvgNodes)
	}
	// GraphGen graphs are connected
	if st.NumDisconnected != 0 {
		t.Errorf("%d disconnected synthetic graphs, want 0", st.NumDisconnected)
	}
	// density within a factor ~2 of target
	if st.AvgDensity < cfg.Density/2 || st.AvgDensity > cfg.Density*3 {
		t.Errorf("avg density %.4f vs target %.4f", st.AvgDensity, cfg.Density)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(SyntheticAt(Tiny), 7)
	b := Synthetic(SyntheticAt(Tiny), 7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("graph %d differs between equal-seed runs", i)
		}
	}
	c := Synthetic(SyntheticAt(Tiny), 8)
	if a[0].Equal(c[0]) {
		t.Error("different seeds should differ")
	}
}

func TestPPIShape(t *testing.T) {
	cfg := PPIAt(Tiny)
	ds := PPI(cfg, 1)
	if len(ds) != cfg.NumGraphs {
		t.Fatalf("got %d graphs", len(ds))
	}
	st := graph.ComputeDatasetStats("ppi", ds)
	// Table 1: all PPI graphs are disconnected
	if st.NumDisconnected != cfg.NumGraphs {
		t.Errorf("%d/%d disconnected, want all (isolated vertices)", st.NumDisconnected, cfg.NumGraphs)
	}
	if st.Labels > cfg.Labels {
		t.Errorf("dataset labels %d > %d", st.Labels, cfg.Labels)
	}
	// per-graph label subset ≈ LabelsPer
	for _, g := range ds {
		if g.DistinctLabels() > cfg.LabelsPer {
			t.Errorf("graph uses %d labels > %d", g.DistinctLabels(), cfg.LabelsPer)
		}
	}
}

func TestSingleRespectsCounts(t *testing.T) {
	cfg := SingleConfig{Nodes: 300, Edges: 900, Labels: 10, LabelZipfS: 1.5, PrefAttach: 0.5, Tree: true}
	g := Single("s", cfg, 3)
	if g.N() != 300 {
		t.Errorf("n = %d", g.N())
	}
	if g.M() < 850 || g.M() > 900 {
		t.Errorf("m = %d, want ≈900", g.M())
	}
	if !g.IsConnected() {
		t.Error("Tree config must produce a connected graph")
	}
}

func TestYeastLikeShape(t *testing.T) {
	g := YeastLike(Tiny, 1)
	st := graph.ComputeStats(g)
	// degree skew: stddev should exceed the mean substantially (Table 2:
	// yeast 14.5 vs 8.04)
	if st.StdDevDegree < st.AvgDegree {
		t.Errorf("degree stddev %.2f should exceed avg %.2f (heavy tail)", st.StdDevDegree, st.AvgDegree)
	}
	// label skew: stddev of label frequency > avg (Table 2: 322 vs 127)
	if st.StdDevLblFreq < st.AvgLabelFreq {
		t.Errorf("label-freq stddev %.2f should exceed avg %.2f", st.StdDevLblFreq, st.AvgLabelFreq)
	}
}

func TestHumanLikeIsDenser(t *testing.T) {
	y := graph.ComputeStats(YeastLike(Tiny, 1))
	h := graph.ComputeStats(HumanLike(Tiny, 1))
	if h.AvgDegree <= y.AvgDegree*2 {
		t.Errorf("human avg degree %.1f should be well above yeast %.1f", h.AvgDegree, y.AvgDegree)
	}
}

func TestWordnetLikeShape(t *testing.T) {
	g := WordnetLike(Tiny, 1)
	st := graph.ComputeStats(g)
	if st.Labels > 5 {
		t.Errorf("wordnet-like labels = %d, want ≤5", st.Labels)
	}
	if st.AvgDegree > 4 {
		t.Errorf("wordnet-like avg degree %.1f, want near-tree sparsity", st.AvgDegree)
	}
	// extreme label skew: most frequent label covers the majority
	freq := g.LabelFrequencies()
	maxF := 0
	for _, c := range freq {
		if c > maxF {
			maxF = c
		}
	}
	if float64(maxF) < 0.5*float64(g.N()) {
		t.Errorf("dominant label covers %d/%d vertices, want majority", maxF, g.N())
	}
}

func TestPaperScaleConfigsMatchTable(t *testing.T) {
	s := SyntheticAt(Paper)
	if s.NumGraphs != 1000 || s.AvgNodes != 1100 || s.Labels != 20 {
		t.Errorf("synthetic paper config = %+v", s)
	}
	p := PPIAt(Paper)
	if p.NumGraphs != 20 || p.AvgNodes != 4942 || p.Labels != 46 {
		t.Errorf("ppi paper config = %+v", p)
	}
	y := YeastLikeAt(Paper)
	if y.Nodes != 3112 || y.Edges != 12519 || y.Labels != 184 {
		t.Errorf("yeast paper config = %+v", y)
	}
	h := HumanLikeAt(Paper)
	if h.Nodes != 4674 || h.Edges != 86282 || h.Labels != 90 {
		t.Errorf("human paper config = %+v", h)
	}
	w := WordnetLikeAt(Paper)
	if w.Nodes != 82670 || w.Edges != 120399 || w.Labels != 5 {
		t.Errorf("wordnet paper config = %+v", w)
	}
}

func TestSingleDeterministic(t *testing.T) {
	a := YeastLike(Tiny, 5)
	b := YeastLike(Tiny, 5)
	if !a.Equal(b) {
		t.Error("same seed must reproduce the graph")
	}
}

func TestSingleEdgeLabels(t *testing.T) {
	cfg := SingleConfig{Nodes: 100, Edges: 300, Labels: 5, EdgeLabels: 3, Tree: true}
	g := Single("el", cfg, 9)
	seen := map[graph.Label]bool{}
	g.LabeledEdges(func(u, v int, l graph.Label) {
		if l < 0 || l >= 3 {
			t.Fatalf("edge label %d out of range", l)
		}
		seen[l] = true
	})
	if len(seen) < 2 {
		t.Errorf("expected at least 2 distinct edge labels, got %v", seen)
	}
	// presets stay edge-unlabeled (paper datasets are vertex-labeled)
	if y := YeastLike(Tiny, 1); !y.Equal(graph.MustNew("y", y.Labels(), y.EdgeList())) {
		t.Error("yeast preset must not have edge labels")
	}
}

// TestDataset: each name the commands accept gives its generator's graphs,
// and an unknown name is an error that names it.
func TestDataset(t *testing.T) {
	for name, want := range map[string][]*graph.Graph{
		"synthetic": Synthetic(SyntheticAt(Tiny), 3),
		"ppi":       PPI(PPIAt(Tiny), 3),
		"yeast":     {YeastLike(Tiny, 3)},
		"human":     {HumanLike(Tiny, 3)},
		"wordnet":   {WordnetLike(Tiny, 3)},
	} {
		got, err := Dataset(name, Tiny, 3)
		if err != nil || len(got) != len(want) {
			t.Fatalf("Dataset(%q) = %d graphs, %v; want %d", name, len(got), err, len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Errorf("Dataset(%q) graph %d differs from its generator's", name, i)
			}
		}
	}
	if _, err := Dataset("pdbs", Tiny, 3); err == nil || !strings.Contains(err.Error(), `"pdbs"`) {
		t.Errorf("Dataset(pdbs) err = %v, want one naming it", err)
	}
}
