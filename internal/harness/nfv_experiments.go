package harness

import (
	"fmt"
	"io"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/metrics"
	"github.com/psi-graph/psi/internal/rewrite"
)

// nfvDatasets lists the NFV datasets with the algorithms the paper runs on
// each: QuickSI only on yeast ("QuickSI always had many more cases ...
// where query processing exceeded the cap", §3.4).
var nfvDatasets = []struct {
	name  string
	algos []string
}{
	{"yeast", []string{"GQL", "SPA", "QSI"}},
	{"human", []string{"GQL", "SPA"}},
	{"wordnet", []string{"GQL", "SPA"}},
}

// nfvTimed measures (with caching) one NFV matching execution of a query
// instance.
func (e *Env) nfvTimed(dataset, algo string, queryIdx int, instance string, q *graph.Graph) metrics.Timing {
	key := fmt.Sprintf("nfv|%s|%s|%d|%s", dataset, algo, queryIdx, instance)
	return e.cachedTiming(key, func() metrics.Timing {
		return e.TimeNFV(e.NFVMatcher(dataset, algo), q)
	})
}

// rewriteNFV applies a rewriting using the stored graph's label frequencies.
func (e *Env) rewriteNFV(dataset string, q *graph.Graph, k rewrite.Kind) *graph.Graph {
	return q.MustPermute(rewrite.Compute(q, e.NFVFrequencies(dataset), k, 0))
}

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: Dataset characteristics for NFV methods",
		Run: func(e *Env, w io.Writer) error {
			t := Table{
				Title:  "Dataset characteristics (NFV)",
				Header: []string{"", "yeast-like", "human-like", "wordnet-like"},
			}
			stats := make([]graph.Stats, 3)
			for i, name := range []string{"yeast", "human", "wordnet"} {
				stats[i] = graph.ComputeStats(e.NFVGraph(name))
			}
			row := func(name string, f func(graph.Stats) string) {
				t.AddRow(name, f(stats[0]), f(stats[1]), f(stats[2]))
			}
			row("#nodes", func(s graph.Stats) string { return fmt.Sprintf("%d", s.Nodes) })
			row("#edges", func(s graph.Stats) string { return fmt.Sprintf("%d", s.Edges) })
			row("avg degree", func(s graph.Stats) string { return fmtF(s.AvgDegree) })
			row("stddev degree", func(s graph.Stats) string { return fmtF(s.StdDevDegree) })
			row("density", func(s graph.Stats) string { return fmt.Sprintf("%.6f", s.Density) })
			row("#labels", func(s graph.Stats) string { return fmt.Sprintf("%d", s.Labels) })
			row("avg freq labels", func(s graph.Stats) string { return fmtF(s.AvgLabelFreq) })
			row("stddev freq labels", func(s graph.Stats) string { return fmtF(s.StdDevLblFreq) })
			return t.Render(w)
		},
	})

	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: Stragglers in NFV methods",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Table 3: NFV breakdown by query size (yeast)",
		Run:   func(e *Env, w io.Writer) error { return runNFVBreakdown(e, w, "yeast") },
	})
	register(Experiment{
		ID:    "table4",
		Title: "Table 4: NFV breakdown by query size (human)",
		Run:   func(e *Env, w io.Writer) error { return runNFVBreakdown(e, w, "human") },
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Figure 4 + Table 6: (max/min)QLA for NFV methods over isomorphic instances",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: isomorphic queries generated with different rewritings",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Figure 6: individual query rewritings for FTV (PPI) and NFV (yeast) methods",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8 + Table 8: speedup*QLA for NFV methods across rewritings",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9 + Table 9: speedup*QLA utilizing different algorithms (NFV)",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: avg speedup*QLA of Ψ versions (rewriting racing) on NFV methods",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14: avg speedup*QLA racing multiple algorithms on NFV methods",
		Run:   func(e *Env, w io.Writer) error { return runFig1415(e, w, false) },
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Figure 15: avg speedup*WLA racing multiple algorithms on NFV methods",
		Run:   func(e *Env, w io.Writer) error { return runFig1415(e, w, true) },
	})
	register(Experiment{
		ID:    "table10",
		Title: "Table 10: percentage of killed queries, baselines vs Ψ-framework",
		Run:   runTable10,
	})
}

func runFig2(e *Env, w io.Writer) error {
	pct := Table{
		Title:  "(d) Percentages of easy, 2''-600'', and hard queries",
		Header: []string{"dataset", "method", "easy", "2''-600''", "hard", "queries"},
	}
	sub := map[string]string{"yeast": "a", "human": "b", "wordnet": "c"}
	for _, ds := range nfvDatasets {
		t := Table{
			Title:  fmt.Sprintf("(%s) WLA-avg exec time per class, %s dataset", sub[ds.name], ds.name),
			Header: []string{"method", "easy", "2''-600''", "completed"},
			Note:   "matching problem, embeddings capped at 1000; killed runs excluded from 'completed'",
		}
		for _, algo := range ds.algos {
			wl := metrics.Workload{Budget: e.Cfg.Budget()}
			for i, q := range e.NFVWorkload(ds.name) {
				wl.Add(e.nfvTimed(ds.name, algo, i, "Orig", q.Graph))
			}
			t.AddRow(algo, fmtDur(wl.AvgEasy()), fmtDur(wl.AvgMid()), fmtDur(wl.AvgCompleted()))
			pct.AddRow(ds.name, algo,
				fmtPct(wl.Counts.Pct(metrics.Easy)),
				fmtPct(wl.Counts.Pct(metrics.Mid)),
				fmtPct(wl.Counts.Pct(metrics.Hard)),
				fmt.Sprintf("%d", wl.Counts.Total()))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return pct.Render(w)
}

// runNFVBreakdown reproduces Tables 3 and 4: per query size, average
// execution time and population of each class per algorithm.
func runNFVBreakdown(e *Env, w io.Writer, dataset string) error {
	var algos []string
	for _, ds := range nfvDatasets {
		if ds.name == dataset {
			algos = ds.algos
		}
	}
	queries := e.NFVWorkload(dataset)
	smallest := e.Cfg.NFVSizes[0]
	largest := e.Cfg.NFVSizes[len(e.Cfg.NFVSizes)-1]
	for _, size := range []int{smallest, largest} {
		t := Table{
			Title:  fmt.Sprintf("%d-edge queries, %s dataset", size, dataset),
			Header: []string{"", "AET easy", "% easy", "AET 2''-600''", "% 2''-600''", "% hard"},
			Note:   "AET: avg exec time per class",
		}
		for _, algo := range algos {
			wl := metrics.Workload{Budget: e.Cfg.Budget()}
			for i, q := range queries {
				if q.WantEdges != size {
					continue
				}
				wl.Add(e.nfvTimed(dataset, algo, i, "Orig", q.Graph))
			}
			t.AddRow(algo,
				fmtDur(wl.AvgEasy()), fmtPct(wl.Counts.Pct(metrics.Easy)),
				fmtDur(wl.AvgMid()), fmtPct(wl.Counts.Pct(metrics.Mid)),
				fmtPct(wl.Counts.Pct(metrics.Hard)))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig4(e *Env, w io.Writer) error {
	t := Table{
		Title:  "(max/min)QLA of matching times across isomorphic instances (NFV)",
		Header: []string{"dataset", "method", "avg", "stddev", "min", "max", "median", "not-helped"},
		Note:   "killed instances counted at the cap (lower bounds); 'not-helped' = queries hard on every instance, excluded",
	}
	for _, ds := range nfvDatasets {
		for _, algo := range ds.algos {
			var ratios []float64
			notHelped, total := 0, 0
			for i, q := range e.NFVWorkload(ds.name) {
				total++
				secs := make([]float64, e.Cfg.IsoInstances)
				allKilled := true
				for j := 0; j < e.Cfg.IsoInstances; j++ {
					perm := rewrite.Compute(q.Graph, nil, rewrite.Random, e.Cfg.Seed+int64(1000*i+j))
					inst := q.Graph.MustPermute(perm)
					tm := e.nfvTimed(ds.name, algo, i, fmt.Sprintf("iso%d", j), inst)
					secs[j] = tm.Seconds()
					if !tm.Killed {
						allKilled = false
					}
				}
				if allKilled {
					notHelped++
					continue
				}
				ratios = append(ratios, metrics.MaxMin(secs))
			}
			s := metrics.Summarize(ratios)
			nh := 0.0
			if total > 0 {
				nh = 100 * float64(notHelped) / float64(total)
			}
			t.AddRow(ds.name, algo, fmtF(s.Mean), fmtF(s.StdDev), fmtF(s.Min), fmtF(s.Max), fmtF(s.Median), fmtPct(nh))
		}
	}
	return t.Render(w)
}

// runFig5 prints the paper's worked rewriting example: the 7-vertex query
// with labels A A A B B C C and stored-graph frequencies A=20, B=15, C=10.
func runFig5(e *Env, w io.Writer) error {
	const A, B, C = 0, 1, 2
	q := graph.MustNew("fig5",
		[]graph.Label{A, A, A, B, B, C, C},
		[][2]int{{0, 1}, {0, 3}, {1, 2}, {1, 4}, {2, 5}, {3, 6}, {4, 5}})
	freq := rewrite.Frequencies{A: 20, B: 15, C: 10}
	names := map[graph.Label]string{A: "A", B: "B", C: "C"}
	t := Table{
		Title:  "Isomorphic queries generated with different rewritings (A:20 B:15 C:10)",
		Header: []string{"rewriting", "labels in node-ID order", "permutation (old->new)"},
	}
	for _, k := range []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.IND, rewrite.ILFIND, rewrite.ILFDND} {
		perm := rewrite.Compute(q, freq, k, 0)
		h := q.MustPermute(perm)
		labels := ""
		for v := 0; v < h.N(); v++ {
			if v > 0 {
				labels += " "
			}
			labels += names[h.Label(v)]
		}
		t.AddRow(k.String(), labels, fmt.Sprint([]int(perm)))
	}
	return t.Render(w)
}

// runFig6 reproduces the per-rewriting comparison: WLA average execution
// times and hard-query percentages for each individual rewriting, on the
// PPI dataset (FTV methods) and the yeast dataset (NFV methods).
func runFig6(e *Env, w io.Writer) error {
	kinds := append([]rewrite.Kind{rewrite.Orig}, rewrite.Structured...)
	// (a)+(b): PPI, FTV methods.
	avgT := Table{
		Title:  "(a) PPI dataset, WLA-avg exec time per rewriting",
		Header: append([]string{"method"}, kindNames(kinds)...),
		Note:   "killed runs counted at the cap",
	}
	hardT := Table{
		Title:  "(b) PPI dataset, percentage of hard queries per rewriting",
		Header: append([]string{"method"}, kindNames(kinds)...),
	}
	for _, x := range e.ftvIndexes("ppi") {
		avgRow := []string{x.Name()}
		hardRow := []string{x.Name()}
		pairs := e.FTVPairs("ppi")
		for _, k := range kinds {
			var secs []float64
			hard := 0
			for i, pair := range pairs {
				inst := e.rewriteFTV("ppi", pair.Query.Graph, k)
				tm := e.ftvVerifyTimed(x, "ppi", i, k.String(), inst, pair.GraphID)
				secs = append(secs, tm.Seconds())
				if tm.Killed {
					hard++
				}
			}
			avgRow = append(avgRow, fmtF(metrics.Mean(secs)*1000)+"ms")
			pctHard := 0.0
			if len(secs) > 0 {
				pctHard = 100 * float64(hard) / float64(len(secs))
			}
			hardRow = append(hardRow, fmtPct(pctHard))
		}
		avgT.AddRow(avgRow...)
		hardT.AddRow(hardRow...)
	}
	if err := avgT.Render(w); err != nil {
		return err
	}
	if err := hardT.Render(w); err != nil {
		return err
	}
	// (c)+(d): yeast, NFV methods.
	avgN := Table{
		Title:  "(c) yeast dataset, WLA-avg exec time per rewriting",
		Header: append([]string{"method"}, kindNames(kinds)...),
		Note:   "killed runs counted at the cap",
	}
	hardN := Table{
		Title:  "(d) yeast dataset, percentage of hard queries per rewriting",
		Header: append([]string{"method"}, kindNames(kinds)...),
	}
	for _, algo := range []string{"GQL", "SPA", "QSI"} {
		avgRow := []string{algo}
		hardRow := []string{algo}
		queries := e.NFVWorkload("yeast")
		for _, k := range kinds {
			var secs []float64
			hard := 0
			for i, q := range queries {
				inst := e.rewriteNFV("yeast", q.Graph, k)
				tm := e.nfvTimed("yeast", algo, i, k.String(), inst)
				secs = append(secs, tm.Seconds())
				if tm.Killed {
					hard++
				}
			}
			avgRow = append(avgRow, fmtF(metrics.Mean(secs)*1000)+"ms")
			pctHard := 0.0
			if len(secs) > 0 {
				pctHard = 100 * float64(hard) / float64(len(secs))
			}
			hardRow = append(hardRow, fmtPct(pctHard))
		}
		avgN.AddRow(avgRow...)
		hardN.AddRow(hardRow...)
	}
	if err := avgN.Render(w); err != nil {
		return err
	}
	return hardN.Render(w)
}

func kindNames(kinds []rewrite.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

func runFig8(e *Env, w io.Writer) error {
	t := Table{
		Title:  "speedup*QLA of best-of-rewritings over the original query (NFV)",
		Header: []string{"dataset", "method", "avg", "stddev", "min", "max", "median"},
		Note:   "speedup* = t(Orig) / min over {ILF,IND,DND,ILF+IND,ILF+DND}; killed runs at the cap; queries hard everywhere excluded",
	}
	for _, ds := range nfvDatasets {
		for _, algo := range ds.algos {
			var speedups []float64
			for i, q := range e.NFVWorkload(ds.name) {
				orig := e.nfvTimed(ds.name, algo, i, "Orig", q.Graph)
				best := orig
				allKilled := orig.Killed
				for _, k := range rewrite.Structured {
					inst := e.rewriteNFV(ds.name, q.Graph, k)
					tm := e.nfvTimed(ds.name, algo, i, k.String(), inst)
					if !tm.Killed {
						allKilled = false
					}
					if tm.Elapsed < best.Elapsed {
						best = tm
					}
				}
				if allKilled {
					continue
				}
				speedups = append(speedups, metrics.Speedup(orig.Seconds(), best.Seconds()))
			}
			s := metrics.Summarize(speedups)
			t.AddRow(ds.name, algo, fmtF(s.Mean), fmtF(s.StdDev), fmtF(s.Min), fmtF(s.Max), fmtF(s.Median))
		}
	}
	return t.Render(w)
}

// fig9Sets are the algorithm portfolios of §7: yeast with two and three
// algorithms, human and wordnet with two.
var fig9Sets = []struct {
	label   string
	dataset string
	algos   []string
}{
	{"yeast2alg", "yeast", []string{"GQL", "SPA"}},
	{"yeast3alg", "yeast", []string{"GQL", "SPA", "QSI"}},
	{"human", "human", []string{"GQL", "SPA"}},
	{"wordnet", "wordnet", []string{"GQL", "SPA"}},
}

func runFig9(e *Env, w io.Writer) error {
	t := Table{
		Title:  "speedup*QLA when utilizing different algorithms (original query)",
		Header: []string{"set", "method", "avg", "stddev", "min", "max", "median"},
		Note:   "speedup* of algorithm M = t_M / min over the portfolio's algorithms, per query",
	}
	for _, set := range fig9Sets {
		times := make(map[string][]metrics.Timing, len(set.algos))
		queries := e.NFVWorkload(set.dataset)
		for _, algo := range set.algos {
			ts := make([]metrics.Timing, len(queries))
			for i, q := range queries {
				ts[i] = e.nfvTimed(set.dataset, algo, i, "Orig", q.Graph)
			}
			times[algo] = ts
		}
		for _, algo := range set.algos {
			var speedups []float64
			for i := range queries {
				best := times[algo][i].Seconds()
				for _, other := range set.algos {
					if s := times[other][i].Seconds(); s < best {
						best = s
					}
				}
				speedups = append(speedups, metrics.Speedup(times[algo][i].Seconds(), best))
			}
			s := metrics.Summarize(speedups)
			t.AddRow(set.label, algo, fmtF(s.Mean), fmtF(s.StdDev), fmtF(s.Min), fmtF(s.Max), fmtF(s.Median))
		}
	}
	return t.Render(w)
}

// psiNFVVariants are the rewriting-racing configurations of §8.2.
var psiNFVVariants = []struct {
	name  string
	kinds []rewrite.Kind
}{
	{"Ψ(Or/ILF/ILF+IND)", []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.ILFIND}},
	{"Ψ(Or/ILF/IND/DND)", []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.IND, rewrite.DND}},
	{"Ψ(Or/ILF/IND/DND/ILF+IND)", []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.IND, rewrite.DND, rewrite.ILFIND}},
	{"Ψ(all)", append([]rewrite.Kind{rewrite.Orig}, rewrite.Structured...)},
}

// psiNFVTimed measures (with caching) a raced NFV execution.
func (e *Env) psiNFVTimed(dataset, variant string, queryIdx int, racer *core.Racer, attempts []core.Attempt, q *graph.Graph) metrics.Timing {
	key := fmt.Sprintf("psinfv|%s|%s|%d", dataset, variant, queryIdx)
	return e.cachedTiming(key, func() metrics.Timing {
		return e.TimeRace(racer, attempts, q)
	})
}

func runFig13(e *Env, w io.Writer) error {
	t := Table{
		Title:  "avg speedup*QLA of Ψ versions (rewriting racing) on NFV methods",
		Header: []string{"dataset", "method", "variant", "threads", "speedup*QLA"},
		Note:   "speedup* = t(Orig)/t(Ψ) per query, averaged; killed runs at the cap",
	}
	for _, ds := range nfvDatasets {
		racer := &core.Racer{Frequencies: e.NFVFrequencies(ds.name)}
		for _, algo := range ds.algos {
			m := e.NFVMatcher(ds.name, algo)
			for _, v := range psiNFVVariants {
				attempts := core.Portfolio([]match.Matcher{m}, v.kinds)
				var ratios []float64
				for i, q := range e.NFVWorkload(ds.name) {
					orig := e.nfvTimed(ds.name, algo, i, "Orig", q.Graph)
					psi := e.psiNFVTimed(ds.name, algo+v.name, i, racer, attempts, q.Graph)
					if psi.Seconds() > 0 {
						ratios = append(ratios, orig.Seconds()/psi.Seconds())
					}
				}
				t.AddRow(ds.name, algo, v.name, fmt.Sprintf("%d", len(v.kinds)), fmtF(metrics.Mean(ratios)))
			}
		}
	}
	return t.Render(w)
}

// fig14Variants are the algorithm+rewriting racing configurations of §8.2:
// GQL and sPath race each other under a common rewriting (or pair of them).
var fig14Variants = []struct {
	name  string
	kinds []rewrite.Kind
}{
	{"Ψ([GQL/SPA]-[Or])", []rewrite.Kind{rewrite.Orig}},
	{"Ψ([GQL/SPA]-[ILF])", []rewrite.Kind{rewrite.ILF}},
	{"Ψ([GQL/SPA]-[IND])", []rewrite.Kind{rewrite.IND}},
	{"Ψ([GQL/SPA]-[DND])", []rewrite.Kind{rewrite.DND}},
	{"Ψ([GQL/SPA]-[Or/DND])", []rewrite.Kind{rewrite.Orig, rewrite.DND}},
}

func runFig1415(e *Env, w io.Writer, wla bool) error {
	metric := "speedup*QLA"
	if wla {
		metric = "speedup*WLA"
	}
	for _, baseline := range []string{"GQL", "SPA"} {
		t := Table{
			Title:  fmt.Sprintf("%s for %s when racing GQL and SPA under shared rewritings", metric, baseline),
			Header: []string{"dataset", "variant", "threads", metric},
			Note:   "baseline is the vanilla algorithm on the original query; killed runs at the cap",
		}
		for _, ds := range nfvDatasets {
			racer := &core.Racer{Frequencies: e.NFVFrequencies(ds.name)}
			matchers := []match.Matcher{e.NFVMatcher(ds.name, "GQL"), e.NFVMatcher(ds.name, "SPA")}
			for _, v := range fig14Variants {
				attempts := core.Portfolio(matchers, v.kinds)
				var base, psi []float64
				var ratios []float64
				for i, q := range e.NFVWorkload(ds.name) {
					b := e.nfvTimed(ds.name, baseline, i, "Orig", q.Graph)
					p := e.psiNFVTimed(ds.name, v.name, i, racer, attempts, q.Graph)
					base = append(base, b.Seconds())
					psi = append(psi, p.Seconds())
					if p.Seconds() > 0 {
						ratios = append(ratios, b.Seconds()/p.Seconds())
					}
				}
				val := metrics.Mean(ratios)
				if wla {
					val = metrics.WLARatio(base, psi)
				}
				t.AddRow(ds.name, v.name, fmt.Sprintf("%d", len(attempts)), fmtF(val))
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func runTable10(e *Env, w io.Writer) error {
	t := Table{
		Title:  "Percentage of killed queries: baselines vs Ψ-framework",
		Header: []string{"workload", "baseline", "baseline killed", "Ψ version", "Ψ killed"},
	}
	// FTV row: Grapes/4 on PPI vs Ψ(Grapes/4: Or + all rewritings).
	{
		x := e.Grapes("ppi", 4)
		pairs := e.FTVPairs("ppi")
		kinds := append([]rewrite.Kind{rewrite.Orig}, rewrite.Structured...)
		baseKilled, psiKilled := 0, 0
		for i, pair := range pairs {
			if e.ftvVerifyTimed(x, "ppi", i, "Orig", pair.Query.Graph, pair.GraphID).Killed {
				baseKilled++
			}
			if e.psiFTVTimed(x, "ppi", "table10", i, kinds, pair).Killed {
				psiKilled++
			}
		}
		n := len(pairs)
		t.AddRow("PPI", "Grapes/4", killedPct(baseKilled, n), "Ψ(Grapes/4: Or/all)", killedPct(psiKilled, n))
	}
	// NFV rows: GQL and SPA vs Ψ([GQL/SPA]-[Or/DND]).
	for _, ds := range nfvDatasets {
		racer := &core.Racer{Frequencies: e.NFVFrequencies(ds.name)}
		matchers := []match.Matcher{e.NFVMatcher(ds.name, "GQL"), e.NFVMatcher(ds.name, "SPA")}
		attempts := core.Portfolio(matchers, []rewrite.Kind{rewrite.Orig, rewrite.DND})
		queries := e.NFVWorkload(ds.name)
		psiKilled := 0
		killed := map[string]int{"GQL": 0, "SPA": 0}
		for i, q := range queries {
			for _, algo := range []string{"GQL", "SPA"} {
				if e.nfvTimed(ds.name, algo, i, "Orig", q.Graph).Killed {
					killed[algo]++
				}
			}
			if e.psiNFVTimed(ds.name, "Ψ([GQL/SPA]-[Or/DND])", i, racer, attempts, q.Graph).Killed {
				psiKilled++
			}
		}
		n := len(queries)
		for _, algo := range []string{"GQL", "SPA"} {
			t.AddRow(ds.name, algo, killedPct(killed[algo], n), "Ψ([GQL/SPA]-[Or/DND])", killedPct(psiKilled, n))
		}
	}
	return t.Render(w)
}

func killedPct(k, n int) string {
	if n == 0 {
		return "-"
	}
	return fmtPct(100 * float64(k) / float64(n))
}
