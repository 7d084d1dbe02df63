package match_test

// The golden search corpus: for every matcher, query and limit, a digest of
// the embedding sequence the search emits and the step count its budget ends
// on, recorded in testdata/golden_search.txt. The four matchers share one
// backtracking join, and this is what pins that join to the behaviour the
// four separate searches it replaced had: the same embeddings in the same
// order, reached after the same number of steps. Regenerate the file with
//
//	go test ./internal/match -run TestGoldenSearch -update
//
// only when a change is meant to move embedding order or step counts.

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/gql"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/quicksi"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
	"github.com/psi-graph/psi/internal/vf2"
	"github.com/psi-graph/psi/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_search.txt from this tree's matchers")

const (
	goldenFile = "testdata/golden_search.txt"
	// goldenRunLimit bounds one run; a run that reaches it is recorded, and
	// counted, as skipped.
	goldenRunLimit = 3 * time.Second
	// goldenMaxSkipped is the share of runs that may be skipped.
	goldenMaxSkipped = 0.02
)

// goldenGraphs is the corpus's stored graphs: the three NFV shapes, an
// edge-labeled graph over three edge labels, and three 4-label synthetic
// dataset graphs.
func goldenGraphs() (names []string, graphs []*graph.Graph) {
	add := func(name string, g *graph.Graph) {
		names = append(names, name)
		graphs = append(graphs, g)
	}
	add("yeast", gen.YeastLike(gen.Tiny, 1))
	add("human", gen.HumanLike(gen.Tiny, 2))
	add("wordnet", gen.WordnetLike(gen.Tiny, 3))
	cfg := gen.YeastLikeAt(gen.Tiny)
	cfg.EdgeLabels = 3
	add("elabel3", gen.Single("elabel3", cfg, 4))
	for i, g := range gen.Synthetic(gen.SyntheticAt(gen.Tiny), 5)[:3] {
		add(fmt.Sprintf("synth4.%d", i), g)
	}
	return names, graphs
}

// goldenQueries is a graph's queries: six random-walk extractions each of 3,
// 6 and 10 edges, and one disconnected query — two extractions side by side
// and a vertex on no edge.
func goldenQueries(g *graph.Graph, seed int64) []*graph.Graph {
	var qs []*graph.Graph
	for _, wq := range workload.GenerateSingle(g, []int{3, 6, 10}, 6, seed) {
		qs = append(qs, wq.Graph)
	}
	b := graph.NewBuilder("disconnected")
	for _, part := range []*graph.Graph{qs[0], qs[4]} {
		base := b.N()
		for v := 0; v < part.N(); v++ {
			b.AddVertex(part.Label(v))
		}
		part.LabeledEdges(func(u, v int, l graph.Label) {
			if err := b.AddLabeledEdge(base+u, base+v, l); err != nil {
				panic(err)
			}
		})
	}
	b.AddVertex(g.Label(0))
	return append(qs, b.MustBuild())
}

// planner is a matcher that runs on the join.
type planner interface {
	match.StreamMatcher
	match.Planner
}

// goldenMatchers is the four matchers over g, in a fixed order.
func goldenMatchers(g *graph.Graph) []planner {
	return []planner{vf2.New(g), quicksi.New(g), gql.New(g), spath.New(g)}
}

// forward passes each embedding of a query to sink as the embedding of the
// query permuted by rank (nil: unchanged) that it is.
func forward(rank graph.Permutation, sink match.Sink) match.Sink {
	if rank == nil {
		return sink
	}
	return match.SinkFunc(func(e match.Embedding) bool {
		out := make(match.Embedding, len(e))
		for u, v := range e {
			out[rank[u]] = v
		}
		return sink.Emit(out)
	})
}

// goldenRun runs one search and returns its golden record: the number of
// embeddings, a digest of their sequence and the search's final step count,
// or "skip" when the run reached goldenRunLimit.
func goldenRun(search func(ctx context.Context, sink match.Sink) error) string {
	ctx, cancel := context.WithTimeout(context.Background(), goldenRunLimit)
	defer cancel()
	h := fnv.New64a()
	n := 0
	var err error
	steps := match.StepsOf(func() {
		err = search(ctx, match.SinkFunc(func(e match.Embedding) bool {
			n++
			for _, v := range e {
				h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
			}
			h.Write([]byte{0xff, 0xff, 0xff, 0xff})
			return true
		}))
	})
	if errors.Is(err, context.DeadlineExceeded) {
		return "skip"
	}
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("n=%d h=%016x steps=%d", n, h.Sum64(), steps)
}

// goldenRecords runs the whole corpus. Every query is run as given and under
// the DND and Random rewritings, by every matcher at limits 0 and 1000; and
// as given, through VF2's ContainsWithin under a random allowed set. The file
// was recorded searching each rewriting's permuted copy of the query; a
// ranked search of the query itself is held to it with its embeddings mapped
// forward onto that copy.
func goldenRecords() []string {
	var out []string
	names, graphs := goldenGraphs()
	for gi, g := range graphs {
		freq := rewrite.FrequenciesOf(g)
		ms := goldenMatchers(g)
		within := vf2.New(g)
		r := rand.New(rand.NewSource(int64(100 + gi)))
		for qi, q := range goldenQueries(g, int64(10+gi)) {
			for _, k := range []rewrite.Kind{rewrite.Orig, rewrite.DND, rewrite.Random} {
				var rank graph.Permutation
				if k != rewrite.Orig {
					rank = rewrite.Compute(q, freq, k, int64(qi))
				}
				for _, m := range ms {
					for _, limit := range []int{0, 1000} {
						rec := goldenRun(func(ctx context.Context, sink match.Sink) error {
							return match.Ranked(ctx, m, q, rank, nil, limit, forward(rank, sink))
						})
						out = append(out, fmt.Sprintf("%s %s q%02d %s %d %s", m.Name(), names[gi], qi, k, limit, rec))
					}
				}
			}
			allowed := match.NewVertexSets(1, g.N())[0]
			keep := 0.5 + 0.5*r.Float64()
			for v := 0; v < g.N(); v++ {
				if r.Float64() < keep {
					allowed.Add(int32(v))
				}
			}
			rec := goldenRun(func(ctx context.Context, sink match.Sink) error {
				found, err := within.ContainsWithin(ctx, q, allowed)
				if found {
					sink.Emit(match.Embedding{})
				}
				return err
			})
			out = append(out, fmt.Sprintf("VF2-within %s q%02d keep=%.2f %s", names[gi], qi, keep, rec))
		}
	}
	return out
}

// TestGoldenSearch holds every matcher to the embedding sequences and step
// counts recorded in testdata/golden_search.txt.
func TestGoldenSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's slowdown pushes runs past their time limit")
	}
	got := goldenRecords()
	if *update {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, the golden file has %d", len(got), len(want))
	}
	skipped, bad := 0, 0
	for i := range got {
		switch {
		case strings.HasSuffix(want[i], " skip") || strings.HasSuffix(got[i], " skip"):
			skipped++
		case got[i] != want[i]:
			if bad++; bad <= 10 {
				t.Errorf("run %d:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more runs differ", bad-10)
	}
	if float64(skipped) > goldenMaxSkipped*float64(len(got)) {
		t.Errorf("%d of %d runs skipped at the %v limit; at most %.0f%% may be", skipped, len(got), goldenRunLimit, 100*goldenMaxSkipped)
	}
	t.Logf("%d runs, %d skipped", len(got), skipped)
	t.Log(stepTotals(got))
}

// stepTotals sums the step counts of records per matcher, in corpus order,
// skipped runs counting none: the corpus's deterministic work total.
func stepTotals(records []string) string {
	var names []string
	total := map[string]int64{}
	all := int64(0)
	for _, rec := range records {
		f := strings.Fields(rec)
		var steps int64
		if _, err := fmt.Sscanf(f[len(f)-1], "steps=%d", &steps); err != nil {
			continue
		}
		if _, ok := total[f[0]]; !ok {
			names = append(names, f[0])
		}
		total[f[0]] += steps
		all += steps
	}
	var b strings.Builder
	b.WriteString("steps:")
	for _, name := range names {
		fmt.Fprintf(&b, " %s %d,", name, total[name])
	}
	fmt.Fprintf(&b, " all %d", all)
	return b.String()
}
