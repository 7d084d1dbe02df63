package psi_test

// Micro-benchmarks of the framework's moving parts: rewriting cost (§8
// reports tens to hundreds of µs), matcher throughput and indexing, and the
// sequential oracle against the pooled filter→verify pipeline. The paper's
// tables and figures are replayed by cmd/psibench and, once each per test
// run, by internal/harness's TestAllExperimentsRun; the racing-overhead
// ablation is the harness's ablation1.

import (
	"context"
	"fmt"
	"testing"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
)

// BenchmarkRewritingCost measures producing one ILF+DND rewriting of a
// 24-edge query — the overhead §8 of the paper reports as "a few tens (for
// smaller query sizes) to a few hundreds ... of µsecs".
func BenchmarkRewritingCost(b *testing.B) {
	g := psi.GenerateYeastLike(psi.Tiny, 1)
	q := psi.ExtractQuery(g, 24, 42)
	freq := rewrite.FrequenciesOf(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MustPermute(rewrite.Compute(q, freq, rewrite.ILFDND, 0))
	}
}

// benchMatcher measures matching a planted 16-edge query (limit 1000).
func benchMatcher(b *testing.B, algo psi.Algorithm, scale psi.Scale) {
	g := psi.GenerateYeastLike(scale, 1)
	q := psi.ExtractQuery(g, 16, 7)
	m := psi.MustNewMatcher(algo, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(context.Background(), q, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchVF2(b *testing.B)     { benchMatcher(b, psi.VF2, psi.Tiny) }
func BenchmarkMatchQuickSI(b *testing.B) { benchMatcher(b, psi.QuickSI, psi.Tiny) }
func BenchmarkMatchGraphQL(b *testing.B) { benchMatcher(b, psi.GraphQL, psi.Tiny) }
func BenchmarkMatchSPath(b *testing.B)   { benchMatcher(b, psi.SPath, psi.Tiny) }

// The default NFV portfolio's two matchers at the repo benchmark's scale
// (the nfv_race stored-graph shape), where per-query signature and
// candidate-set work shows; at Tiny it does not.
func BenchmarkMatchGraphQLPaper(b *testing.B) { benchMatcher(b, psi.GraphQL, psi.Paper) }
func BenchmarkMatchSPathPaper(b *testing.B)   { benchMatcher(b, psi.SPath, psi.Paper) }

// BenchmarkMatcherBuild measures each matcher's indexing phase over the
// paper-scale yeast graph: what NewEngine pays per portfolio algorithm, and
// for sPath what it then holds (sig-bytes: the signature slab and offsets).
func BenchmarkMatcherBuild(b *testing.B) {
	g := psi.GenerateYeastLike(psi.Paper, 1)
	for _, algo := range []psi.Algorithm{psi.GraphQL, psi.SPath, psi.VF2, psi.QuickSI} {
		b.Run(string(algo), func(b *testing.B) {
			b.ReportAllocs()
			var m psi.Matcher
			for i := 0; i < b.N; i++ {
				m = psi.MustNewMatcher(algo, g)
			}
			if spa, ok := m.(*spath.Matcher); ok {
				b.ReportMetric(float64(spa.IndexBytes()), "sig-bytes")
			}
		})
	}
}

// answerBench builds the GGSX index over the Tiny synthetic dataset and a
// workload of queries with non-trivial candidate sets — the fixture for the
// sequential-vs-pooled answer comparison. GGSX verifies against whole stored
// graphs (no location pruning), so per-candidate verification carries enough
// work for the fan-out to pay.
func answerBench(tb testing.TB) (psi.FilterIndex, []*psi.Graph) {
	ds := psi.GenerateSynthetic(psi.Tiny, 1)
	x := mustBuildIndex(tb, "ggsx", ds, 0)
	var queries []*psi.Graph
	for i, g := range ds {
		queries = append(queries,
			psi.ExtractQuery(g, 8, int64(100+i)),
			psi.ExtractQuery(g, 14, int64(200+i)))
	}
	return x, queries
}

// BenchmarkAnswerSequential is the baseline: the sequential oracle, filter
// then candidates verified one after another on the caller's goroutine.
func BenchmarkAnswerSequential(b *testing.B) {
	x, queries := answerBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := index.SequentialAnswer(context.Background(), x, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAnswerWorkers runs the streaming filter→verify pipeline at pinned
// pool sizes so the scaling curve is visible on any machine regardless of
// GOMAXPROCS; answers are byte-identical to the sequential oracle (see
// TestPooledAnswerMatchesSequential).
func BenchmarkAnswerWorkers(b *testing.B) {
	x, queries := answerBench(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", w), func(b *testing.B) {
			pool := exec.New(w)
			defer pool.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := index.Answer(context.Background(), x, q, pool); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
