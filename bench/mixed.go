package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/server"
)

// churn is the writer's state across the windows of one serve_mixed run:
// which spare graph is ingested next and which handles are live, oldest
// first.
type churn struct {
	st    *site
	spare [][]byte
	next  int
	live  []psi.GraphHandle

	inFlight atomic.Bool // a mutation is between send and response

	// Service times in ms, and failures; the writer goroutine's alone.
	add, remove, compact []float64
	failed               int
	lastErr              error
}

// op is mutation k of the schedule: even k ingest the next spare graph, odd
// k delete the oldest live graph, so the dataset keeps its size while its
// content and its handles move on.
func (c *churn) op(r *run, k int) {
	c.inFlight.Store(true)
	defer c.inFlight.Store(false)
	start := time.Now()
	if k%2 == 0 {
		id := r.rec.begin("mutation.add", 0, -1)
		var resp server.IngestResponse
		err := c.st.mutate("POST", "/graphs", c.spare[c.next%len(c.spare)], &resp)
		r.rec.end(id)
		c.next++
		if err != nil || len(resp.Handles) != 1 {
			c.fail(fmt.Errorf("ingest: %v (handles %v)", err, resp.Handles))
			return
		}
		c.live = append(c.live, resp.Handles[0])
		c.record(&c.add, start)
		return
	}
	id := r.rec.begin("mutation.remove", 0, -1)
	var resp server.MutateResponse
	err := c.st.mutate("DELETE", "/graphs/"+strconv.FormatInt(int64(c.live[0]), 10), nil, &resp)
	r.rec.end(id)
	if err != nil {
		c.fail(err)
		return
	}
	c.live = c.live[1:]
	if resp.Compacted {
		c.record(&c.compact, start)
	} else {
		c.record(&c.remove, start)
	}
}

func (c *churn) record(into *[]float64, start time.Time) {
	*into = append(*into, ms(time.Since(start)))
}

func (c *churn) fail(err error) {
	c.failed++
	c.lastErr = err
}

// runMixed is the serve_mixed workload: one Zipf reader through the result
// cache beside one writer on a fixed schedule, then a quiesced parity
// replay against a from-scratch and a cold-started engine.
func runMixed(r *run) error {
	ds, pool := r.in.ds, r.in.pool
	st, err := timeSetups(r, func() (*site, error) { return newSite(ds, r.spec) }, (*site).close)
	if err != nil {
		return err
	}
	defer st.close()

	// Warm-up: every distinct query once, uncached, checked by the oracle
	// at epoch 0; then one reader pass through the cache to time a pass.
	answers := make([][]int, len(pool))
	for i, q := range pool {
		a := st.query(q.body, false)
		if !a.ok {
			return fmt.Errorf("warm-up query %d failed (summary %+v)", i, a.summary)
		}
		answers[i] = a.ids
	}
	oracle(r, ds, pool, answers)
	read := func(_, i int) sample {
		a := st.query(pool[i].body, true)
		return a.sample
	}
	warm := measure(1, 1, r.in.reads, read).wall
	r.res.Counts["warmup_ms"] = int(warm.Milliseconds())

	c := &churn{st: st, spare: r.in.spare}
	for _, h := range st.eng.Handles() {
		c.live = append(c.live, h)
	}
	if r.cfg.window {
		passes := r.passesFor(warm)
		r.res.Counts["passes"] = passes
		if err := churnWindow(r, c, passes, false); err != nil {
			return err
		}
	}
	if r.cfg.traced {
		r.rec = newRecorder()
		passes := max(r.passesFor(warm)/2, 1)
		if err := churnWindow(r, c, passes, true); err != nil {
			return err
		}
		if err := serverCounters(r, st); err != nil {
			return err
		}
	}

	// Quiesced: the writer has stopped. The served engine, an engine built
	// from scratch over its dataset and one cold-started from its snapshot
	// must agree on every pool query.
	final := make([]reply, len(pool))
	finalIDs := make([][]int, len(pool))
	for i, q := range pool {
		final[i] = st.query(q.body, false)
		if !final[i].ok {
			return fmt.Errorf("quiesced query %d failed (summary %+v)", i, final[i].summary)
		}
		finalIDs[i] = final[i].ids
	}
	if r.cfg.fault {
		finalIDs[0] = append(finalIDs[0], len(ds)+len(c.spare)) // test hook
	}
	now := st.eng.Dataset()
	scratch, err := psi.NewDatasetEngine(now, psi.EngineOptions{Indexes: r.spec.Indexes, Timeout: engineBudget})
	if err != nil {
		return err
	}
	defer scratch.Close()
	cold, err := saveAndLoad(r, st.eng, "")
	if err != nil {
		return err
	}
	defer cold.eng.Close()
	ctx := context.Background()
	firstStart := time.Now()
	for i, q := range pool {
		for name, e := range map[string]*psi.Engine{"from-scratch": scratch, "cold-started": cold.eng} {
			res, err := e.Query(ctx, q.g, 0)
			if err != nil {
				return fmt.Errorf("%s engine, query %d: %w", name, i, err)
			}
			if name == "cold-started" && i == 0 {
				cold.first = time.Since(firstStart)
			}
			if res.Killed || !slices.Equal(res.GraphIDs, finalIDs[i]) {
				r.mismatch("query %d: served engine answered %v, %s engine %v (killed %v)\n%s", i, finalIDs[i], name, res.GraphIDs, res.Killed, q.body)
			}
		}
	}
	r.res.Counts["parity_checked"] = len(pool)
	if !r.cfg.traced {
		return nil
	}
	r.put("coldstart_s", (cold.load + cold.first).Seconds(), 1)
	cold.report(r, now)
	return probeDataset(r, st.eng, now, finalIDs, final)
}

// churnWindow runs the reader for whole passes of its Zipf sequence while
// the writer follows its schedule, and reports the window.
func churnWindow(r *run, c *churn, passes int, traced bool) error {
	pool := r.in.pool
	c.add, c.remove, c.compact, c.failed = nil, nil, nil, 0
	var (
		done    atomic.Bool
		timings []mutationTiming
		wg      sync.WaitGroup
	)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		timings = runSchedule(start.Add(r.spec.MutateEvery), r.spec.MutateEvery, done.Load, func(k int) { c.op(r, k) })
	}()
	w := measure(1, passes, r.in.reads, func(_, i int) sample {
		before := c.inFlight.Load()
		id := 0
		if traced {
			id = r.rec.begin("request", 0, i)
		}
		a := c.st.query(pool[i].body, true)
		r.rec.end(id)
		a.busy = before || c.inFlight.Load()
		return a.sample
	})
	done.Store(true)
	wg.Wait()
	if c.failed > 0 {
		r.mismatch("%d mutations failed, last: %v", c.failed, c.lastErr)
	}
	r.reportWindow(w, traced)
	r.res.Attempted += len(timings)
	r.res.Failed += c.failed
	r.res.Counts["mutations"] = len(timings)

	var lat, late []float64
	for _, t := range timings {
		lat, late = append(lat, ms(t.Latency)), append(late, ms(t.Late))
	}
	if len(lat) > 0 {
		s := sorted(lat)
		r.put("mutation_p50_ms", percentile(s, 50), len(s))
		r.put("mutation_p90_ms", percentile(s, 90), len(s))
		r.put("load.generator_late_ms", slices.Max(late), len(late))
	}
	r.putMedian("live.add_ms", c.add)
	r.putMedian("live.remove_ms", c.remove)
	r.putMedian("live.compaction_ms", c.compact)
	r.put("live.compactions", float64(len(c.compact)), len(timings))

	var cached, during, between []float64
	for _, s := range w.samples {
		switch {
		case !s.ok:
		case s.cached:
			cached = append(cached, us(s.total))
		case s.busy:
			during = append(during, us(s.total))
		default:
			between = append(between, us(s.total))
		}
	}
	r.putMedian("server.cached_reply_us", cached)
	if len(during) > 0 && len(between) > 0 {
		r.put("live.query_slowdown_x", median(during)/median(between), len(during))
	}
	return nil
}

// coldStart is one SaveSnapshot → load round trip.
type coldStart struct {
	save, load, first time.Duration
	fileBytes         int64
	eng               *psi.Engine
}

// saveAndLoad persists eng and loads the file into a second engine (under
// policy, when set). The caller closes the returned engine.
func saveAndLoad(r *run, eng *psi.Engine, policy string) (coldStart, error) {
	var cs coldStart
	path := filepath.Join(r.cfg.outDir, "snapshot-"+r.spec.Name+".bin")
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return cs, err
	}
	defer os.Remove(path)
	var err error
	cs.save = r.rec.timed("snapshot.save", 0, -1, func() { err = eng.SaveSnapshot(path) })
	if err != nil {
		return cs, fmt.Errorf("SaveSnapshot: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return cs, err
	}
	cs.fileBytes = fi.Size()
	opts := psi.EngineOptions{Snapshot: path, Mutable: eng.Mutable(), IndexPolicy: policy, Timeout: engineBudget}
	cs.load = r.rec.timed("snapshot.load", 0, -1, func() { cs.eng, err = psi.NewDatasetEngine(nil, opts) })
	if err != nil {
		return cs, fmt.Errorf("loading snapshot: %w", err)
	}
	return cs, nil
}
