package harness

import (
	"fmt"
	"io"
	"time"

	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/metrics"
	"github.com/psi-graph/psi/internal/rewrite"
)

// ftvVerifiers returns the FTV methods evaluated on a dataset, following the
// paper: GGSX is omitted on the synthetic dataset ("because of excessive
// amount of time required for the experiments to complete", §3.4). They are
// verifiers over the dataset's one table.
func ftvVerifiers(dataset string) []index.Verifier {
	vs := []index.Verifier{Grapes(1), Grapes(4)}
	if dataset == "ppi" {
		vs = append(vs, GGSX())
	}
	return vs
}

// ftvVerifyTimed measures (with caching) the verification of a query
// instance against one dataset graph. The instance key distinguishes
// rewritings/instances of the same base query.
func (e *Env) ftvVerifyTimed(x index.Verifier, dataset string, pairIdx int, instance string, q *graph.Graph, graphID int) metrics.Timing {
	key := fmt.Sprintf("ftv|%s|%s|%d|%s", x.Name(), dataset, pairIdx, instance)
	return e.cachedTiming(key, func() metrics.Timing {
		return e.TimeFTVVerify(x, dataset, q, graphID)
	})
}

// rewriteFTV applies a rewriting using dataset-wide label frequencies.
func (e *Env) rewriteFTV(dataset string, q *graph.Graph, k rewrite.Kind) *graph.Graph {
	return q.MustPermute(rewrite.Compute(q, e.FTVFrequencies(dataset), k, 0))
}

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: Dataset characteristics for FTV methods",
		Run: func(e *Env, w io.Writer) error {
			syn := graph.ComputeDatasetStats("synthetic", e.Synthetic())
			ppi := graph.ComputeDatasetStats("ppi", e.PPI())
			t := Table{
				Title:  "Dataset characteristics (FTV)",
				Header: []string{"", "PPI-like", "Synthetic"},
			}
			row := func(name string, f func(graph.DatasetStats) string) {
				t.AddRow(name, f(ppi), f(syn))
			}
			row("#graphs", func(s graph.DatasetStats) string { return fmt.Sprintf("%d", s.NumGraphs) })
			row("#disconnected", func(s graph.DatasetStats) string { return fmt.Sprintf("%d", s.NumDisconnected) })
			row("#labels", func(s graph.DatasetStats) string { return fmt.Sprintf("%d", s.Labels) })
			row("avg #nodes", func(s graph.DatasetStats) string { return fmtF(s.AvgNodes) })
			row("stddev #nodes", func(s graph.DatasetStats) string { return fmtF(s.StdDevNodes) })
			row("avg #edges", func(s graph.DatasetStats) string { return fmtF(s.AvgEdges) })
			row("avg density", func(s graph.DatasetStats) string { return fmt.Sprintf("%.4f", s.AvgDensity) })
			row("avg degree", func(s graph.DatasetStats) string { return fmtF(s.AvgDegree) })
			row("avg #labels/graph", func(s graph.DatasetStats) string { return fmtF(s.AvgLabels) })
			return t.Render(w)
		},
	})

	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: Stragglers in FTV methods",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3 + Table 5: (max/min)QLA for FTV methods over isomorphic instances",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7 + Table 7: speedup*QLA for FTV methods across rewritings",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: avg speedup*QLA of Ψ-framework versions on FTV methods",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: avg speedup*WLA of Ψ-framework versions on FTV methods",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: Grapes/4 vs Ψ(Grapes/1 + 4 rewritings) on PPI, by query size",
		Run:   runFig12,
	})
}

func runFig1(e *Env, w io.Writer) error {
	pct := Table{
		Title:  "(c) Percentages of easy, 2''-600'', and hard queries",
		Header: []string{"dataset", "method", "easy", "2''-600''", "hard", "pairs"},
	}
	for _, dataset := range []string{"synthetic", "ppi"} {
		t := Table{
			Title:  fmt.Sprintf("(%s) WLA-avg exec time per class, %s dataset", map[string]string{"synthetic": "a", "ppi": "b"}[dataset], dataset),
			Header: []string{"method", "easy", "2''-600''", "completed"},
			Note:   "per-(query,graph) pure sub-iso verification time; killed runs excluded from 'completed'",
		}
		for _, x := range ftvVerifiers(dataset) {
			wl := metrics.Workload{Budget: e.Cfg.Budget()}
			for i, pair := range e.FTVPairs(dataset) {
				tm := e.ftvVerifyTimed(x, dataset, i, "Orig", pair.Query.Graph, pair.GraphID)
				wl.Add(tm)
			}
			t.AddRow(x.Name(), fmtDur(wl.AvgEasy()), fmtDur(wl.AvgMid()), fmtDur(wl.AvgCompleted()))
			pct.AddRow(dataset, x.Name(),
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

// isoInstanceTimes measures the verification times of the random isomorphic
// instances of a pair's query (the §5 study).
func (e *Env) isoInstanceTimes(x index.Verifier, dataset string, pairIdx int, pair FTVPair) []metrics.Timing {
	out := make([]metrics.Timing, e.Cfg.IsoInstances)
	for j := 0; j < e.Cfg.IsoInstances; j++ {
		perm := rewrite.Compute(pair.Query.Graph, nil, rewrite.Random, e.Cfg.Seed+int64(1000*pairIdx+j))
		inst := pair.Query.Graph.MustPermute(perm)
		out[j] = e.ftvVerifyTimed(x, dataset, pairIdx, fmt.Sprintf("iso%d", j), inst, pair.GraphID)
	}
	return out
}

func runFig3(e *Env, w io.Writer) error {
	t := Table{
		Title:  "(max/min)QLA of verification times across isomorphic instances",
		Header: []string{"dataset", "method", "avg", "stddev", "min", "max", "median", "not-helped"},
		Note:   "killed instances counted at the cap, so avg/max are lower bounds (as in the paper); 'not-helped' = pairs hard on every instance, excluded",
	}
	for _, dataset := range []string{"synthetic", "ppi"} {
		for _, x := range ftvVerifiers(dataset) {
			var ratios []float64
			notHelped, total := 0, 0
			for i, pair := range e.FTVPairs(dataset) {
				times := e.isoInstanceTimes(x, dataset, i, pair)
				total++
				secs := make([]float64, len(times))
				allKilled := true
				for j, tm := range times {
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
			t.AddRow(dataset, x.Name(), fmtF(s.Mean), fmtF(s.StdDev), fmtF(s.Min), fmtF(s.Max), fmtF(s.Median), fmtPct(nh))
		}
	}
	return t.Render(w)
}

// rewritingTimes measures the verification time of each structured
// rewriting (plus Orig) for a pair. Returned in the order Orig, ILF, IND,
// DND, ILF+IND, ILF+DND.
func (e *Env) ftvRewritingTimes(x index.Verifier, dataset string, pairIdx int, pair FTVPair) map[rewrite.Kind]metrics.Timing {
	out := make(map[rewrite.Kind]metrics.Timing, 6)
	kinds := append([]rewrite.Kind{rewrite.Orig}, rewrite.Structured...)
	for _, k := range kinds {
		inst := e.rewriteFTV(dataset, pair.Query.Graph, k)
		out[k] = e.ftvVerifyTimed(x, dataset, pairIdx, k.String(), inst, pair.GraphID)
	}
	return out
}

func runFig7(e *Env, w io.Writer) error {
	t := Table{
		Title:  "speedup*QLA of best-of-rewritings over the original query (FTV)",
		Header: []string{"dataset", "method", "avg", "stddev", "min", "max", "median"},
		Note:   "speedup* = t(Orig) / min over {ILF,IND,DND,ILF+IND,ILF+DND}; killed runs counted at the cap (lower bounds); pairs hard everywhere excluded",
	}
	for _, dataset := range []string{"synthetic", "ppi"} {
		for _, x := range ftvVerifiers(dataset) {
			var speedups []float64
			for i, pair := range e.FTVPairs(dataset) {
				times := e.ftvRewritingTimes(x, dataset, i, pair)
				orig := times[rewrite.Orig]
				best := orig
				allKilled := orig.Killed
				for _, k := range rewrite.Structured {
					tm := times[k]
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
			t.AddRow(dataset, x.Name(), fmtF(s.Mean), fmtF(s.StdDev), fmtF(s.Min), fmtF(s.Max), fmtF(s.Median))
		}
	}
	return t.Render(w)
}

// psiFTVVariants are the Ψ-framework configurations of §8.1.
var psiFTVVariants = []struct {
	name  string
	kinds []rewrite.Kind
}{
	{"Ψ(ILF/ILF+IND)", []rewrite.Kind{rewrite.ILF, rewrite.ILFIND}},
	{"Ψ(ILF/ILF+DND)", []rewrite.Kind{rewrite.ILF, rewrite.ILFDND}},
	{"Ψ(ILF/IND/DND)", []rewrite.Kind{rewrite.ILF, rewrite.IND, rewrite.DND}},
	{"Ψ(ILF/IND/DND/ILF+IND)", []rewrite.Kind{rewrite.ILF, rewrite.IND, rewrite.DND, rewrite.ILFIND}},
	{"Ψ(all_rewritings)", rewrite.Structured},
}

// psiFTVVariantsWLA adds the Ψ(Or/all_rewritings) variant shown only in the
// WLA figure.
var psiFTVVariantsWLA = append(psiFTVVariants, struct {
	name  string
	kinds []rewrite.Kind
}{"Ψ(Or/all_rewritings)", append([]rewrite.Kind{rewrite.Orig}, rewrite.Structured...)})

// psiFTVTimed measures a raced verification with caching.
func (e *Env) psiFTVTimed(x index.Verifier, dataset, variant string, pairIdx int, kinds []rewrite.Kind, pair FTVPair) metrics.Timing {
	key := fmt.Sprintf("psiftv|%s|%s|%s|%d", x.Name(), dataset, variant, pairIdx)
	return e.cachedTiming(key, func() metrics.Timing {
		return e.TimeFTVRace(x, dataset, kinds, pair.Query.Graph, pair.GraphID)
	})
}

func runFig10(e *Env, w io.Writer) error {
	t := Table{
		Title:  "avg speedup*QLA of Ψ versions over the original query (FTV)",
		Header: []string{"dataset", "method", "variant", "threads", "speedup*QLA"},
		Note:   "speedup* = t(Orig)/t(Ψ) per (query,graph) pair, averaged; killed runs at the cap",
	}
	for _, dataset := range []string{"synthetic", "ppi"} {
		for _, x := range ftvVerifiers(dataset) {
			pairs := e.FTVPairs(dataset)
			for _, v := range psiFTVVariants {
				var ratios []float64
				for i, pair := range pairs {
					o := e.ftvVerifyTimed(x, dataset, i, "Orig", pair.Query.Graph, pair.GraphID)
					p := e.psiFTVTimed(x, dataset, v.name, i, v.kinds, pair)
					if p.Seconds() > 0 {
						ratios = append(ratios, o.Seconds()/p.Seconds())
					}
				}
				t.AddRow(dataset, x.Name(), v.name, fmt.Sprintf("%d", len(v.kinds)), fmtF(metrics.Mean(ratios)))
			}
		}
	}
	return t.Render(w)
}

func runFig11(e *Env, w io.Writer) error {
	t := Table{
		Title:  "avg speedup*WLA of Ψ versions over the original query (FTV)",
		Header: []string{"dataset", "method", "variant", "threads", "speedup*WLA"},
		Note:   "WLA = avg(t Orig) / avg(t Ψ) over all (query,graph) pairs",
	}
	for _, dataset := range []string{"synthetic", "ppi"} {
		for _, x := range ftvVerifiers(dataset) {
			pairs := e.FTVPairs(dataset)
			for _, v := range psiFTVVariantsWLA {
				var orig, psi []float64
				for i, pair := range pairs {
					o := e.ftvVerifyTimed(x, dataset, i, "Orig", pair.Query.Graph, pair.GraphID)
					p := e.psiFTVTimed(x, dataset, v.name, i, v.kinds, pair)
					orig = append(orig, o.Seconds())
					psi = append(psi, p.Seconds())
				}
				t.AddRow(dataset, x.Name(), v.name, fmt.Sprintf("%d", len(v.kinds)), fmtF(metrics.WLARatio(orig, psi)))
			}
		}
	}
	return t.Render(w)
}

func runFig12(e *Env, w io.Writer) error {
	t := Table{
		Title:  "WLA-avg exec time on PPI by query size: Grapes/4 vs Ψ(Grapes/1 × ILF/IND/DND/ILF+IND)",
		Header: []string{"query size", "Grapes/4", "Ψ(Grapes/1)", "pairs"},
		Note:   "equal thread budget (4); killed runs counted at the cap",
	}
	g4, g1 := Grapes(4), Grapes(1)
	kinds := []rewrite.Kind{rewrite.ILF, rewrite.IND, rewrite.DND, rewrite.ILFIND}
	bySize := make(map[int][2][]float64)
	for i, pair := range e.FTVPairs("ppi") {
		cur := bySize[pair.Query.WantEdges]
		cur[0] = append(cur[0], e.ftvVerifyTimed(g4, "ppi", i, "Orig", pair.Query.Graph, pair.GraphID).Seconds())
		cur[1] = append(cur[1], e.psiFTVTimed(g1, "ppi", "fig12", i, kinds, pair).Seconds())
		bySize[pair.Query.WantEdges] = cur
	}
	for _, size := range e.Cfg.FTVSizes {
		cur := bySize[size]
		t.AddRow(fmt.Sprintf("%de", size),
			fmtDur(time.Duration(metrics.Mean(cur[0])*float64(time.Second))),
			fmtDur(time.Duration(metrics.Mean(cur[1])*float64(time.Second))),
			fmt.Sprintf("%d", len(cur[0])))
	}
	return t.Render(w)
}
