package psi_test

// One benchmark per table and figure of the paper: each regenerates the
// artifact end to end (datasets, indexes, workload, measurements) at Tiny
// scale through the experiment harness. Set -timeout generously; macro
// benchmarks take seconds per iteration by design.
//
// Micro-benchmarks at the bottom measure the framework's moving parts:
// rewriting cost (§8 reports tens to hundreds of µs), matcher throughput,
// index construction, and the racing overhead ablation (the harness's
// ablation1, as a micro-benchmark).

import (
	"context"
	"io"
	"testing"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/harness"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
)

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	cfg := harness.DefaultConfig(gen.Tiny)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := harness.Run(cfg, io.Discard, id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DatasetStats(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2DatasetStats(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFig1FTVStragglers(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig2NFVStragglers(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkTable3YeastBreakdown(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4HumanBreakdown(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig3MaxMinFTV(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4MaxMinNFV(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig5RewritingExample(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6RewritingSweep(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7SpeedupFTV(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8SpeedupNFV(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9AlgPortfolio(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10PsiFTVQLA(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11PsiFTVWLA(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12GrapesVsPsi(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13PsiNFVRewr(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14PsiNFVAlgQLA(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15PsiNFVAlgWLA(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkTable10Killed(b *testing.B)        { benchExperiment(b, "table10") }
func BenchmarkAblationOverhead(b *testing.B)     { benchExperiment(b, "ablation1") }

// --- micro-benchmarks -----------------------------------------------------

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

// BenchmarkGrapesIndexBuild measures FTV index construction over the
// Tiny PPI dataset with 4 workers.
func BenchmarkGrapesIndexBuild(b *testing.B) {
	ds := psi.GeneratePPI(psi.Tiny, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBuildIndex(b, "grapes", ds, 4).Close()
	}
}

// BenchmarkGGSXIndexBuild measures the suffix-trie construction.
func BenchmarkGGSXIndexBuild(b *testing.B) {
	ds := psi.GeneratePPI(psi.Tiny, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBuildIndex(b, "ggsx", ds, 0).Close()
	}
}

// BenchmarkGrapesFilter measures the filtering stage alone.
func BenchmarkGrapesFilter(b *testing.B) {
	ds := psi.GeneratePPI(psi.Tiny, 1)
	x := mustBuildIndex(b, "grapes", ds, 4)
	q := psi.ExtractQuery(ds[0], 16, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Filter(q)
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
		b.Run(byThreads(w), func(b *testing.B) {
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

// BenchmarkRaceOverhead is the racing-overhead ablation: racing k
// identical VF2 attempts against running one, quantifying goroutine
// instantiation + synchronization overhead (§8: "the instantiation and
// synchronization of many threads come with a non-trivial overhead").
func BenchmarkRaceOverhead(b *testing.B) {
	g := psi.GenerateYeastLike(psi.Tiny, 1)
	q := psi.ExtractQuery(g, 8, 3)
	racer := core.NewRacer(g)
	for _, k := range []int{1, 2, 4, 8} {
		attempts := make([]core.Attempt, k)
		for i := range attempts {
			attempts[i] = core.Attempt{Matcher: psi.MustNewMatcher(psi.VF2, g), Rewriting: rewrite.Orig}
		}
		b.Run(byThreads(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := racer.Race(context.Background(), q, 1, attempts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byThreads(k int) string {
	return map[int]string{1: "threads=1", 2: "threads=2", 4: "threads=4", 8: "threads=8"}[k]
}
