package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	psi "github.com/psi-graph/psi"
)

// runFTV is the two read-only dataset workloads, ftv_stragglers and
// ftv_selective: the same serving path, opposite filter selectivity.
func runFTV(r *run) error {
	ds, pool := r.in.ds, r.in.pool
	st, err := timeSetups(r, func() (*site, error) { return newSite(ds, r.spec) }, (*site).close)
	if err != nil {
		return err
	}
	defer st.close()

	// Warm-up pass: fills connections and pools, times one pass, and
	// records every query's answer for the correctness gate. A traced-only
	// run warms up on the probe sample and takes the answers from its
	// traced pass; the decomposed pipelines are its gate.
	answers := make([][]int, len(pool))
	warmIdx := r.in.order
	if !r.cfg.window {
		warmIdx = r.sampleIdx()
	}
	warmStart := time.Now()
	for _, i := range warmIdx {
		a := st.query(pool[i].body, false)
		if !a.ok {
			return fmt.Errorf("warm-up query %d failed (summary %+v)", i, a.summary)
		}
		answers[i] = a.ids
	}
	warm := time.Since(warmStart)
	r.res.Counts["warmup_ms"] = int(warm.Milliseconds())
	if r.cfg.fault {
		answers[0] = append(answers[0], len(ds)) // test hook: a graph that does not exist
	}
	if r.cfg.window {
		oracle(r, ds, pool, answers)
		passes := r.passesFor(warm)
		r.res.Counts["passes"] = passes
		r.reportWindow(measure(r.spec.Clients, passes, r.in.order, func(_, i int) sample {
			a := st.query(pool[i].body, false)
			if a.ok && !slices.Equal(a.ids, answers[i]) && !(r.cfg.fault && i == 0) {
				a.ok = false
				r.mismatch("query %d: answer %v changed between passes\n%s", i, a.ids, pool[i].body)
			}
			return a.sample
		}), false)
	}
	if !r.cfg.traced {
		return nil
	}

	// Traced pass: the pool once more, with a span per request and the
	// engine's and server's own counters read around it.
	r.rec = newRecorder()
	c0, w0 := st.eng.Counters(), st.eng.WinCounts()
	replies := make([]reply, len(pool))
	traced := measure(r.spec.Clients, 1, r.in.order, func(_, i int) sample {
		id := r.rec.begin("request", 0, i)
		replies[i] = st.query(pool[i].body, false)
		r.rec.end(id)
		return replies[i].sample
	})
	r.reportWindow(traced, true)
	for i := range replies {
		if answers[i] == nil {
			answers[i] = replies[i].ids
		}
	}
	c1, w1 := st.eng.Counters(), st.eng.WinCounts()
	queries := float64(c1.Queries - c0.Queries)
	if c1.IndexAttempts > c0.IndexAttempts {
		r.put("core.index_attempts_per_answer", float64(c1.IndexAttempts-c0.IndexAttempts)/queries, int(queries))
	}
	for label, n := range w1 {
		for _, kind := range indexKinds {
			if strings.Contains(strings.ToLower(label), kind) {
				r.put("core.win_share."+kind, float64(n-w0[label])/queries, int(queries))
			}
		}
	}
	if err := serverCounters(r, st); err != nil {
		return err
	}
	if err := probeDataset(r, st.eng, ds, answers, replies); err != nil {
		return err
	}
	if err := probeSnapshot(r, st.eng, ds, answers); err != nil {
		return err
	}
	sampleIdx := r.sampleIdx()
	onSample := func() window {
		return measure(1, 1, sampleIdx, func(_, i int) sample { return st.query(pool[i].body, false).sample })
	}
	r.put("exec.parallel_speedup_x", speedup(onSample), len(sampleIdx))
	r.put("exec.group_dispatch_us", groupDispatch(), 1)
	return nil
}

// sampleIdx is every TraceStride-th pool position: the queries the layer
// probes decompose.
func (r *run) sampleIdx() []int {
	var out []int
	for i := 0; i < len(r.in.pool); i += r.spec.TraceStride {
		out = append(out, i)
	}
	return out
}

// serverCounters reads the serving layer's own /stats.
func serverCounters(r *run, st *site) error {
	s, err := st.stats()
	if err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	seen := s.Admitted + s.Rejected + s.Unavailable
	r.put("server.rejected_ratio", float64(s.Rejected+s.Unavailable)/float64(max(seen, 1)), int(seen))
	r.put("server.coalesced", float64(s.Coalesced), int(seen))
	if s.ResultCache != nil && s.ResultCache.Hits+s.ResultCache.Misses > 0 {
		lookups := s.ResultCache.Hits + s.ResultCache.Misses
		r.put("server.cache_hit_ratio", float64(s.ResultCache.Hits)/float64(lookups), int(lookups))
	}
	return nil
}

// oracleStride is the oracle's sample: every 4th pool query, position 0
// first, for as long as its time budget lasts.
const oracleStride = 4

// oracle compares the engine's answers with a sequential, unfiltered
// VF2/Orig scan of the dataset. The scan has its own stragglers, so it is
// time-boxed: a query that overruns its share is left unresolved, never
// counted as checked.
func oracle(r *run, ds []*psi.Graph, pool []query, answers [][]int) {
	budget := time.Duration(r.cfg.seconds * 0.3 * float64(time.Second))
	if r.cfg.smoke {
		budget = 5 * time.Second
	}
	matchers := make([]psi.Matcher, len(ds))
	for g := range ds {
		matchers[g] = psi.MustNewMatcher(psi.VF2, ds[g])
	}
	deadline := time.Now().Add(budget)
	checked, unresolved := 0, 0
	for i := 0; i < len(pool) && time.Now().Before(deadline); i += oracleStride {
		ctx, cancel := context.WithTimeout(context.Background(), budget/8)
		var want []int
		resolved := true
		for g := range ds {
			embs, err := matchers[g].Match(ctx, pool[i].g, 0)
			if err != nil {
				resolved = false
				break
			}
			if len(embs) > 0 {
				want = append(want, g)
			}
		}
		cancel()
		if !resolved {
			unresolved++
			continue
		}
		checked++
		if !slices.Equal(want, answers[i]) {
			r.mismatch("query %d: engine answered %v, VF2 scan %v\n%s", i, answers[i], want, pool[i].body)
		}
	}
	r.res.Counts["oracle_checked"] = checked
	r.res.Counts["oracle_unresolved"] = unresolved
}
