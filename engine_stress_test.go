package psi_test

// Concurrency audit for the Engine as a shared serving object: many
// goroutines mixing Plan, Execute, QueryStream, stats accessors and the
// learned-policy/caching state on one Engine. These tests exist to run under
// the race detector (scripts/check.sh runs the suite with -race): the
// serving subsystem in internal/server admits queries concurrently, so any
// shared-state race here is a server bug waiting for traffic.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	psi "github.com/psi-graph/psi"
)

// TestEngineConcurrentNFVCallers hammers an NFV engine in auto mode — the
// mode with the most shared mutable state (the bandit's per-class evidence,
// decision counters and kill escalations), with warm-up short and staleness
// re-races frequent so solo runs, races and the switches between them all
// overlap — and checks every answer matches the sequential baseline.
func TestEngineConcurrentNFVCallers(t *testing.T) {
	g, q := engineFixture(t)
	eng := newEngine(t, g, psi.EngineOptions{Mode: psi.ModeAuto})
	psi.SetAutoPolicy(eng, 0, 2, 5)
	baseline := query(t, eng, q, 100000)

	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (gi + i) % 4 {
				case 0: // plan + execute
					p, err := eng.Plan(q)
					if err != nil {
						errs <- err
						return
					}
					res, err := eng.Execute(context.Background(), p, 100000)
					if err != nil {
						errs <- err
						return
					}
					if res.Found != baseline.Found && !res.FellBack {
						errs <- fmt.Errorf("concurrent result found %d, baseline %d", res.Found, baseline.Found)
					}
				case 1: // streaming
					n := 0
					if _, err := eng.QueryStream(context.Background(), q, 100000,
						psi.SinkFunc(func(psi.Embedding) bool { n++; return true })); err != nil {
						errs <- err
						return
					}
					if n != baseline.Found {
						errs <- fmt.Errorf("concurrent stream emitted %d, baseline %d", n, baseline.Found)
					}
				case 2: // convenience path
					if _, err := eng.Query(context.Background(), q, 100000); err != nil {
						errs <- err
						return
					}
				default: // stats readers racing the writers
					_ = eng.Counters()
					_ = eng.WinCounts()
					_, _ = eng.PolicyStats()
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c := eng.Counters(); c.Queries == 0 || c.RaceAttempts == 0 {
		t.Errorf("counters did not accumulate: %+v", c)
	}
}

// TestEngineConcurrentDatasetCallers exercises the two dataset launches at
// once per engine: the fixed pipeline (one rewriting) and the rewriting race
// of Grapes (per-candidate attempt pools), each mixing collected queries,
// streamed answers and stats snapshots from many goroutines.
func TestEngineConcurrentDatasetCallers(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 1)
	configs := []psi.EngineOptions{
		{Indexes: []string{"ftv"}, IndexPolicy: psi.IndexFixed},
		{Indexes: []string{"ftv", "grapes"}},
	}
	for ci, opts := range configs {
		eng := newDatasetEngine(t, ds, opts)
		queries := make([]*psi.Graph, 4)
		for i := range queries {
			queries[i] = psi.ExtractQuery(ds[i%len(ds)], 4, int64(7+i))
		}
		baseline := make([][]int, len(queries))
		for i, q := range queries {
			baseline[i] = query(t, eng, q, 0).GraphIDs
		}

		const goroutines, iters = 6, 5
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*iters)
		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					qi := (gi + i) % len(queries)
					q := queries[qi]
					switch (gi + i) % 3 {
					case 0:
						res, err := eng.Query(context.Background(), q, 0)
						if err != nil || !slices.Equal(res.GraphIDs, baseline[qi]) {
							errs <- fmt.Errorf("config %d: concurrent answer %v (%v), baseline %v", ci, res, err, baseline[qi])
							return
						}
					case 1:
						var ids []int
						_, err := eng.AnswerStream(context.Background(), q, func(id int) bool {
							ids = append(ids, id)
							return true
						})
						if err != nil || !slices.Equal(ids, baseline[qi]) {
							errs <- fmt.Errorf("config %d: streamed answer %v (%v), baseline %v", ci, ids, err, baseline[qi])
							return
						}
					default:
						_ = eng.IndexStats()
						_ = eng.Mode()
						_ = eng.Counters()
						_ = eng.WinCounts()
					}
				}
			}(gi)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
