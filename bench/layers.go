package main

import (
	"context"
	"runtime"
	"slices"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// verifyCap bounds one decomposed verification. A standalone index verifies
// without the engine's rewriting race, so its stragglers are worse than the
// engine's; a capped one leaves its query out of the parity comparison.
const verifyCap = 250 * time.Millisecond

// speedup runs pass at GOMAXPROCS=1 and at the canonical setting and
// returns serial wall time over parallel wall time.
func speedup(pass func() window) float64 {
	parallel := pass()
	prev := runtime.GOMAXPROCS(1)
	serial := pass()
	runtime.GOMAXPROCS(prev)
	return serial.wall.Seconds() / parallel.wall.Seconds()
}

// probeDataset decomposes the sampled queries layer by layer against
// standalone indexes over ds, one kind at a time, and reports the index,
// and ftv metrics. answers are the engine's answers over
// ds (the parity reference for every kind) and replies the traced pass's
// responses to the same pool.
func probeDataset(r *run, eng *psi.Engine, ds []*psi.Graph, answers [][]int, replies []reply) error {
	ctx := context.Background()
	pool, sampleIdx := r.in.pool, r.sampleIdx()
	r.res.Counts["probe_queries"] = len(sampleIdx)

	// Request-path layers that do not depend on the index kind.
	var parse, plan, feats []float64
	front := map[int]time.Duration{} // per query: parse + plan + features
	roots := map[int]int{}
	for _, i := range sampleIdx {
		q := pool[i]
		root := r.rec.begin("decomposed", 0, i)
		roots[i] = root
		dParse, err := probeParse(r, root, i, q)
		if err != nil {
			return err
		}
		dPlan := r.rec.timed("psi.plan", root, i, func() { _, err = eng.Plan(q.g) })
		if err != nil {
			return err
		}
		dFeat := r.rec.timed("ftv.query_features", root, i, func() { ftv.QueryFeatures(q.g, ftv.DefaultMaxPathLen) })
		r.rec.end(root)
		parse, plan, feats = append(parse, us(dParse)), append(plan, us(dPlan)), append(feats, us(dFeat))
		front[i] = dParse + dPlan + dFeat
	}
	r.putMedian("graph.parse_us", parse)
	r.putMedian("psi.plan_us", plan)
	r.putMedian("ftv.query_features_us", feats)

	built := map[string]psi.IndexStats{}
	for _, s := range eng.IndexStats() {
		built[s.Kind] = s
	}
	cost := map[string]map[int]time.Duration{} // kind → query → filter + Σ verify
	monoFilter := 0.0
	for _, kind := range r.spec.Indexes {
		p := "index." + kind + "."
		if s, ok := built[kind]; ok {
			r.put(p+"build_s", s.BuildTime.Seconds(), 1)
			r.put(p+"features", float64(s.Features), 1)
		}
		before := heapInUseMB()
		x, err := psi.BuildIndex(ctx, kind, ds, 1)
		if err != nil {
			return err
		}
		r.put(p+"heap_mb", heapInUseMB()-before, 1)
		var filter, verify, answer []float64
		candidates, contained := 0, 0
		cost[kind] = map[int]time.Duration{}
		for _, i := range sampleIdx {
			q := pool[i]
			var cands []int
			dFilter := r.rec.timed(p+"filter", roots[i], i, func() { cands = x.Filter(q.g) })
			filter = append(filter, us(dFilter))
			candidates += len(cands)
			var ids []int
			total, resolved := dFilter, true
			for _, c := range cands {
				vctx, cancel := context.WithTimeout(ctx, verifyCap)
				var ok bool
				d := r.rec.timed(p+"verify", roots[i], i, func() { ok, err = x.Verify(vctx, q.g, c) })
				cancel()
				verify = append(verify, us(d))
				total += d
				if err != nil {
					resolved = false
				} else if ok {
					ids = append(ids, c)
				}
			}
			if !resolved {
				r.res.Counts["decomposed_unresolved"]++
				continue
			}
			cost[kind][i] = total
			contained += len(ids)
			if !slices.Equal(ids, answers[i]) {
				r.mismatch("query %d: engine answered %v, decomposed %s filter+verify %v\n%s", i, answers[i], kind, ids, q.body)
			}
			actx, cancel := context.WithTimeout(ctx, engineBudget)
			dAnswer := r.rec.timed(p+"answer", roots[i], i, func() { _, err = index.Answer(actx, x, q.g, nil) })
			cancel()
			if err == nil {
				answer = append(answer, us(dAnswer))
			}
		}
		x.Close()
		r.putMedian(p+"filter_us", filter)
		r.putMedian(p+"answer_us", answer)
		r.put(p+"candidates_per_query", float64(candidates)/float64(len(sampleIdx)), len(sampleIdx))
		if candidates > 0 {
			r.put(p+"filter_precision", float64(contained)/float64(candidates), candidates)
			v := sorted(verify)
			r.put(p+"verify_us_per_candidate", percentile(v, 50), len(v))
			r.put(p+"verify_p99_us", percentile(v, supportedTail(len(v), 99)), len(v))
		}
		if kind == "ftv" {
			monoFilter = median(filter)
		}
	}

	// What the engine adds over its fastest pipeline, and how much of a
	// request the decomposed layers explain.
	var overhead []float64
	layers, requests := 0.0, 0.0
	for _, i := range sampleIdx {
		best := time.Duration(-1)
		for _, kind := range r.spec.Indexes {
			if c, ok := cost[kind][i]; ok && (best < 0 || c < best) {
				best = c
			}
		}
		primary, ok := cost[r.spec.Indexes[0]][i]
		if !ok || !replies[i].ok {
			continue // a capped verification: this query's layers are unknown
		}
		overhead = append(overhead, float64(replies[i].summary.ElapsedUS)-us(best))
		layers += us(front[i] + primary)
		requests += us(replies[i].total)
	}
	r.putMedian("psi.engine_overhead_us", overhead)
	if requests > 0 {
		r.put("trace.coverage", layers/requests, len(overhead))
	}
	var srvOver []float64
	for _, a := range replies {
		if a.ok && !a.cached {
			srvOver = append(srvOver, us(a.total)-float64(a.summary.ElapsedUS))
		}
	}
	r.putMedian("server.overhead_us", srvOver)

	if r.spec.Shards > 1 && monoFilter > 0 {
		x, err := psi.NewShardedIndex(ctx, "ftv", ds, r.spec.Shards, 1)
		if err != nil {
			return err
		}
		var filter []float64
		for _, i := range sampleIdx {
			filter = append(filter, us(r.rec.timed("index.sharded.filter", roots[i], i, func() { x.Filter(pool[i].g) })))
		}
		x.Close()
		r.putMedian("index.sharded.filter_us", filter)
		r.put("index.sharded.merge_overhead_x", median(filter)/monoFilter, len(filter))
	}

	// Feature extraction, the unit of both index build and ingest.
	var extract []float64
	for g := 0; g < len(ds); g += max(len(ds)/8, 1) {
		extract = append(extract, us(r.rec.timed("ftv.extract", 0, -1, func() { ftv.ExtractFeatures(ds[g], ftv.DefaultMaxPathLen, false) })))
	}
	r.putMedian("ftv.extract_us_per_graph", extract)
	return nil
}

// countWriter counts bytes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// report writes the snapshot metrics of a round trip over dataset ds.
func (cs coldStart) report(r *run, ds []*psi.Graph) {
	var text countWriter
	if err := graph.WriteDataset(&text, ds); err != nil {
		panic(err) // countWriter cannot fail
	}
	r.put("snapshot.save_s", cs.save.Seconds(), 1)
	r.put("snapshot.load_s", cs.load.Seconds(), 1)
	r.put("snapshot.file_mb", float64(cs.fileBytes)/(1<<20), 1)
	r.put("snapshot.bytes_per_dataset_byte", float64(cs.fileBytes)/float64(text.n), 1)
}

// probeSnapshot saves eng to a file and loads it back. With an index
// portfolio the loaded engine runs under the auto policy and answers the
// sampled queries once, which is where the predict metrics come from
// without a second index build.
func probeSnapshot(r *run, eng *psi.Engine, ds []*psi.Graph, answers [][]int) error {
	policy := ""
	if len(r.spec.Indexes) > 1 {
		policy = psi.IndexAuto
	}
	cs, err := saveAndLoad(r, eng, policy)
	if err != nil {
		return err
	}
	loaded := cs.eng
	defer loaded.Close()
	cs.report(r, ds)
	if policy == "" {
		return nil
	}
	var decide []float64
	for _, i := range r.sampleIdx() {
		q := r.in.pool[i]
		var plan *psi.Plan
		decide = append(decide, us(r.rec.timed("predict.decide", 0, i, func() { plan, err = loaded.Plan(q.g) })))
		if err != nil {
			return err
		}
		res, err := loaded.Execute(context.Background(), plan, 0)
		if err != nil {
			return err
		}
		if !res.Killed && !slices.Equal(res.GraphIDs, answers[i]) {
			r.mismatch("query %d: race answered %v, auto policy %v\n%s", i, answers[i], res.GraphIDs, q.body)
		}
	}
	c := loaded.Counters()
	r.putMedian("predict.decide_us", decide)
	r.put("predict.solo_share", float64(c.PolicySolo)/float64(max(c.PolicySolo+c.PolicyRaces, 1)), int(c.Queries))
	r.put("predict.escalation_ratio", float64(c.PolicyEscalations)/float64(max(c.PolicySolo, 1)), int(c.Queries))
	r.put("predict.attempts_per_answer", float64(c.IndexAttempts)/float64(max(c.Queries, 1)), int(c.Queries))
	return nil
}
