package psi_test

// Concurrency audit for the Engine as a shared serving object: many
// goroutines mixing Plan, Execute, ExecuteStream, stats accessors and the
// learned-policy/caching state on one Engine. These tests exist to run under
// the race detector (scripts/check.sh runs the suite with -race): the
// serving subsystem in internal/server admits queries concurrently, so any
// shared-state race here is a server bug waiting for traffic.

import (
	"context"
	"fmt"
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
	eng, err := psi.NewEngine(g, psi.EngineOptions{
		Mode:           psi.ModeAuto,
		AutoMinSamples: 2,
		AutoRaceEvery:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	baseline, err := eng.Query(context.Background(), q, 100000)
	if err != nil {
		t.Fatal(err)
	}

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
					_ = eng.Attempts()
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

// TestEngineConcurrentDatasetCallers exercises the two dataset shapes at
// once per engine: the fixed pipeline behind the iGQ-style result cache
// (shared cache entries, shared stats) and the index-racing portfolio
// (per-query attempt pools), each mixing collected queries, streamed
// answers and stats snapshots from many goroutines.
func TestEngineConcurrentDatasetCallers(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 1)
	configs := []psi.EngineOptions{
		{Indexes: []string{"ftv"}},         // fixed policy + result cache
		{Indexes: []string{"ftv", "ggsx"}}, // index race, no cache
	}
	for ci, opts := range configs {
		eng, err := psi.NewDatasetEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]*psi.Graph, 4)
		for i := range queries {
			queries[i] = psi.ExtractQuery(ds[i%len(ds)], 4, int64(7+i))
		}
		baseline := make([][]int, len(queries))
		for i, q := range queries {
			res, err := eng.Query(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			baseline[i] = res.GraphIDs
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
						if err != nil {
							errs <- err
							return
						}
						if fmt.Sprint(res.GraphIDs) != fmt.Sprint(baseline[qi]) {
							errs <- fmt.Errorf("config %d: concurrent answer %v, baseline %v", ci, res.GraphIDs, baseline[qi])
						}
					case 1:
						var ids []int
						if err := eng.AnswerStream(context.Background(), q, func(id int) bool {
							ids = append(ids, id)
							return true
						}); err != nil {
							errs <- err
							return
						}
						if fmt.Sprint(ids) != fmt.Sprint(baseline[qi]) {
							errs <- fmt.Errorf("config %d: streamed answer %v, baseline %v", ci, ids, baseline[qi])
						}
					default:
						_ = eng.IndexStats()
						_ = eng.IndexPolicy()
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
		eng.Close()
	}
}
