package graph_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
)

// FuzzReadDataset feeds the text parser what POST /query and POST /graphs
// bodies can hold: it must never panic, and whatever it accepts must write
// back out as text that parses to the same graphs.
func FuzzReadDataset(f *testing.F) {
	var ds bytes.Buffer
	if err := graph.WriteDataset(&ds, gen.Synthetic(gen.SyntheticConfig{NumGraphs: 2, AvgNodes: 6, NodeSpread: 2, Density: 0.4, Labels: 3}, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(ds.String())
	for _, label := range []string{"2147483647", "2147483648", "4294967296", "4294967297"} {
		f.Add("#g\n2\n0\n" + label + "\n1\n0 1\n")
		f.Add("#g\n2\n0\n1\n1\n0 1 " + label + "\n")
	}
	f.Fuzz(func(t *testing.T, text string) {
		gs, err := graph.ReadDataset(strings.NewReader(text))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := graph.WriteDataset(&out, gs); err != nil {
			t.Fatal(err)
		}
		back, err := graph.ReadDataset(&out)
		if err != nil {
			t.Fatalf("the written form of an accepted dataset does not parse: %v\n%s", err, out.String())
		}
		if len(back) != len(gs) {
			t.Fatalf("%d graphs read back as %d", len(gs), len(back))
		}
		for i := range gs {
			if !back[i].Equal(gs[i]) {
				t.Fatalf("graph %d differs after a write and a read:\n%s", i, out.String())
			}
		}
	})
}
