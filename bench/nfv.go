package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/exec"
)

const (
	nfvLimit     = 1000
	engineBudget = 5 * time.Second
	// soloBudget is the solo GQL-Orig engine's kill cap in the correctness
	// gate. Solo has stragglers the race does not (one pool query takes it
	// about 5 s): a killed solo run leaves its query unresolved, and a
	// second is enough to know it is one.
	soloBudget = time.Second
	// soloCap bounds one solo matcher probe: VF2 and QuickSI have the
	// stragglers the race exists to avoid, and a probe is not worth more.
	soloCap = 50 * time.Millisecond
)

// nfvAnswer is one library-call request's outcome.
type nfvAnswer struct {
	sample
	found  int
	embs   []psi.Embedding // kept only when asked
	engine time.Duration   // the engine's own elapsed time
}

func nfvQuery(eng *psi.Engine, q *psi.Graph, keep bool) (nfvAnswer, error) {
	var a nfvAnswer
	start := time.Now()
	res, err := eng.QueryStream(context.Background(), q, nfvLimit, psi.SinkFunc(func(e psi.Embedding) bool {
		if a.found == 0 {
			a.first = time.Since(start)
		}
		a.found++
		if keep {
			a.embs = append(a.embs, e.Clone())
		}
		return true
	}))
	a.total = time.Since(start)
	if a.found == 0 {
		a.first = a.total
	}
	if err != nil {
		return a, err
	}
	a.engine = res.Elapsed
	a.ok = !res.Killed && res.Found == a.found
	return a, nil
}

// runNFV is the nfv_race workload: the default raced portfolio answering
// limit-1000 streaming queries against one stored graph, by library calls.
func runNFV(r *run) error {
	g, pool := r.in.stored, r.in.pool
	eng, err := timeSetups(r,
		func() (*psi.Engine, error) { return psi.NewEngine(g, psi.EngineOptions{Timeout: engineBudget}) },
		func(e *psi.Engine) { e.Close() })
	if err != nil {
		return err
	}
	defer eng.Close()
	solo, err := psi.NewEngine(g, psi.EngineOptions{
		Algorithms: []psi.Algorithm{psi.GraphQL}, Rewritings: []psi.Rewriting{psi.Orig},
		Mode: psi.ModeSingle, Timeout: soloBudget,
	})
	if err != nil {
		return err
	}
	defer solo.Close()

	// Warm-up pass, which is also the correctness gate: every embedding is
	// re-verified and distinct, and the raced and solo engines agree on
	// how many there are.
	found := make([]int, len(pool))
	soloLat := make([]time.Duration, len(pool))
	warmStart := time.Now()
	var warm time.Duration
	for i, q := range pool {
		t := time.Now()
		a, err := nfvQuery(eng, q.g, true)
		warm += time.Since(t)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		if !a.ok {
			r.mismatch("query %d (%s) was killed or lost embeddings", i, q.g.Name())
		}
		if r.cfg.fault && i == 0 && len(a.embs) > 0 {
			a.embs[0][0] = a.embs[0][len(a.embs[0])-1] // test hook: no longer injective
		}
		seen := make(map[string]bool, len(a.embs))
		for _, e := range a.embs {
			if verr := psi.VerifyEmbedding(q.g, g, e); verr != nil {
				r.mismatch("query %d: invalid embedding %v: %v\n%s", i, e, verr, q.body)
				break
			}
			k := fmt.Sprint(e)
			if seen[k] {
				r.mismatch("query %d: embedding %v emitted twice\n%s", i, e, q.body)
				break
			}
			seen[k] = true
		}
		s, err := nfvQuery(solo, q.g, false)
		if err != nil {
			return fmt.Errorf("solo query %d: %w", i, err)
		}
		if !s.ok {
			r.res.Counts["solo_killed"]++
		} else if s.found != a.found {
			r.mismatch("query %d: race found %d, solo GQL-Orig found %d\n%s", i, a.found, s.found, q.body)
		}
		found[i], soloLat[i] = a.found, s.total
	}
	r.res.Counts["parity_checked"] = len(pool)
	r.res.Counts["warmup_ms"] = int(time.Since(warmStart).Milliseconds())

	do := func(_, i int) sample {
		a, err := nfvQuery(eng, pool[i].g, false)
		if err != nil || a.found != found[i] {
			a.ok = false
		}
		return a.sample
	}
	if r.cfg.window {
		passes := r.passesFor(warm)
		r.res.Counts["passes"] = passes
		r.reportWindow(measure(1, passes, r.in.order, do), false)
	}
	if !r.cfg.traced {
		return nil
	}
	return traceNFV(r, eng, solo, soloLat)
}

// traceNFV is the traced pass and the layer probes of nfv_race.
func traceNFV(r *run, eng, solo *psi.Engine, soloLat []time.Duration) error {
	g, pool := r.in.stored, r.in.pool
	r.rec = newRecorder()
	ctx := context.Background()

	// Traced pass: the whole pool once through the raced engine.
	c0, w0 := eng.Counters(), eng.WinCounts()
	raced := make([]nfvAnswer, len(pool))
	traced := measure(1, 1, r.in.order, func(_, i int) sample {
		id := r.rec.begin("request", 0, i)
		a, err := nfvQuery(eng, pool[i].g, false)
		r.rec.end(id)
		a.ok = a.ok && err == nil
		raced[i] = a
		return a.sample
	})
	r.reportWindow(traced, true)
	c1, w1 := eng.Counters(), eng.WinCounts()
	queries := float64(c1.Queries - c0.Queries)
	r.put("core.attempts_per_answer", float64(c1.RaceAttempts-c0.RaceAttempts)/queries, int(queries))
	rewritten := 0.0
	for label, n := range w1 {
		d := float64(n - w0[label])
		r.put("core.win_share."+strings.ToLower(label), d/queries, int(queries))
		if !strings.HasSuffix(label, "-"+psi.Orig.String()) {
			rewritten += d
		}
	}
	r.put("rewrite.win_share", rewritten/queries, int(queries))

	// Decomposed layers on every TraceStride-th query.
	matchers := map[string]psi.Matcher{}
	for name, algo := range map[string]psi.Algorithm{"gql": psi.GraphQL, "spath": psi.SPath, "vf2": psi.VF2, "quicksi": psi.QuickSI} {
		m, err := psi.NewMatcher(algo, g)
		if err != nil {
			return err
		}
		matchers[name] = m
	}
	var (
		parse, plan, apply, overhead, bestSolo, raceLat, layerSum, reqSum []float64
		soloAlgo                                                          = map[string][]float64{}
		sampleIdx                                                         = r.sampleIdx()
	)
	for _, i := range sampleIdx {
		q := pool[i]
		root := r.rec.begin("decomposed", 0, i)
		dParse, err := probeParse(r, root, i, q)
		if err != nil {
			return err
		}
		dPlan := r.rec.timed("psi.plan", root, i, func() { _, err = eng.Plan(q.g) })
		if err != nil {
			return err
		}
		dApply := r.rec.timed("rewrite.apply", root, i, func() { psi.ApplyRewriting(q.g, g, psi.DND) })
		best := time.Duration(0)
		for _, name := range algoNames {
			mctx, cancel := context.WithTimeout(ctx, soloCap)
			d := r.rec.timed(name+".match", root, i, func() { _, _ = matchers[name].Match(mctx, q.g, nfvLimit) })
			cancel()
			soloAlgo[name] = append(soloAlgo[name], us(d))
			if (name == "gql" || name == "spath") && (best == 0 || d < best) {
				best = d // the portfolio's own algorithms
			}
		}
		r.rec.end(root)
		a := raced[i]
		parse, plan, apply = append(parse, us(dParse)), append(plan, us(dPlan)), append(apply, us(dApply))
		bestSolo, raceLat = append(bestSolo, us(best)), append(raceLat, us(a.total))
		overhead = append(overhead, us(a.engine-best))
		layerSum, reqSum = append(layerSum, us(dPlan+dApply+best)), append(reqSum, us(a.total))
	}
	r.res.Counts["probe_queries"] = len(sampleIdx)
	r.putMedian("graph.parse_us", parse)
	r.putMedian("psi.plan_us", plan)
	r.putMedian("rewrite.apply_us", apply)
	r.putMedian("psi.engine_overhead_us", overhead)
	for name, v := range soloAlgo {
		s := sorted(v)
		r.put(name+".match_p50_us", percentile(s, 50), len(s))
		r.put(name+".match_p99_us", percentile(s, supportedTail(len(s), 99)), len(s))
	}
	r.put("core.race_overhead_x", median(raceLat)/median(bestSolo), len(raceLat))
	r.put("trace.coverage", sum(layerSum)/sum(reqSum), len(reqSum))

	// The paper's trade, from outside: tail and CPU of the race against
	// solo GQL-Orig over the same pool.
	var raceAll, soloAll []float64
	for _, s := range traced.samples {
		if s.ok {
			raceAll = append(raceAll, ms(s.total))
		}
	}
	soloAll = durs(soloLat, ms)
	tail := supportedTail(min(len(raceAll), len(soloAll)), 99)
	r.put("core.race_tail_gain_x", percentile(sorted(soloAll), tail)/percentile(sorted(raceAll), tail), len(raceAll))
	onSample := func(e *psi.Engine) window {
		return measure(1, 1, sampleIdx, func(_, i int) sample {
			a, _ := nfvQuery(e, pool[i].g, false)
			return a.sample
		})
	}
	together, alone := onSample(eng), onSample(solo)
	r.put("core.race_cpu_x", together.cpu.Seconds()/alone.cpu.Seconds(), len(sampleIdx))
	r.put("exec.parallel_speedup_x", speedup(func() window { return onSample(eng) }), len(sampleIdx))
	r.put("exec.group_dispatch_us", groupDispatch(), 1)
	return nil
}

// probeParse times graph.ReadDataset on a query's wire bytes.
func probeParse(r *run, parent, qid int, q query) (time.Duration, error) {
	var err error
	d := r.rec.timed("graph.parse", parent, qid, func() { err = parseBody(q.body) })
	return d, err
}

// groupDispatch is the cost of one no-op task through the shared pool's
// NewGroup/Go/Wait, in microseconds.
func groupDispatch() float64 {
	const tasks = 4096
	p := exec.Default()
	start := time.Now()
	grp := p.NewGroup(context.Background())
	for i := 0; i < tasks; i++ {
		grp.Go(func(context.Context) error { return nil })
	}
	_ = grp.Wait() // no-op tasks cannot fail
	return us(time.Since(start)) / tasks
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
