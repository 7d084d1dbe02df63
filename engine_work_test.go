package psi

// The work of one dataset query, counted by equality: a counting verifier
// stands in for each of the engine's verifiers, on a one-worker pool and a
// fixed generated dataset, so the same query starts the same verifications
// on every run.

import (
	"context"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
)

// countingVerifier counts the verifications a verifier starts, per graph.
type countingVerifier struct {
	index.Verifier
	mu     sync.Mutex
	starts map[int]int
	total  int
}

func (v *countingVerifier) Verify(ctx context.Context, t *index.Path, q *graph.Graph, graphID int) (bool, error) {
	v.mu.Lock()
	v.starts[graphID]++
	v.total++
	v.mu.Unlock()
	return v.Verifier.Verify(ctx, t, q, graphID)
}

// settled returns the counts once at least n verifications have started: a
// candidate's race returns at its first finisher, and the losers it
// cancelled may reach Verify after the query has.
func (v *countingVerifier) settled(t *testing.T, n int) map[int]int {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		v.mu.Lock()
		total := v.total
		v.mu.Unlock()
		if total >= n || time.Now().After(deadline) {
			break
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return maps.Clone(v.starts)
}

// TestOneScanPerQuery: a query of an engine serving {ftv, grapes, ggsx}
// under the default {Orig, DND} filters once and starts exactly 2 verifiers
// × 2 rewritings = 4 verifications per candidate, each verifier 2 — one
// scan, since a second would start every candidate's race again — and none
// of anything else. {ftv, ggsx} selects one verifier, so 2 per candidate.
// Every run counts the same.
func TestOneScanPerQuery(t *testing.T) {
	ds := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 12, AvgNodes: 24, NodeSpread: 6, Density: 0.15, Labels: 3}, 7)
	q := ExtractQuery(ds[3], 4, 11)
	oracle, err := index.Build(context.Background(), index.KindPath, ds, 1, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	candidates := oracle.Filter(q)
	want := difftest.Want(ds, q)
	if len(candidates) < 2 {
		t.Fatalf("the fixture query has %d candidates; want several", len(candidates))
	}
	for _, tc := range []struct {
		names     []string
		verifiers int
	}{
		{[]string{"ftv", "grapes", "ggsx"}, 2},
		{[]string{"ftv", "ggsx"}, 1},
	} {
		eng, err := NewDatasetEngine(ds, EngineOptions{Indexes: tc.names, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if len(eng.verifiers) != tc.verifiers {
			t.Fatalf("%v: %d verifiers, want %d", tc.names, len(eng.verifiers), tc.verifiers)
		}
		for run := 0; run < 3; run++ {
			counted := make([]*countingVerifier, len(eng.verifiers))
			for i, v := range eng.verifiers {
				if c, ok := v.(*countingVerifier); ok {
					v = c.Verifier
				}
				counted[i] = &countingVerifier{Verifier: v, starts: map[int]int{}}
				eng.verifiers[i] = counted[i]
			}
			c0 := eng.Counters()
			res, err := eng.Query(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.GraphIDs, want) {
				t.Fatalf("%v run %d: answered %v, index.SequentialAnswer %v", tc.names, run, res.GraphIDs, want)
			}
			wantStarts := map[int]int{}
			for _, id := range candidates {
				wantStarts[id] = 2 // one per rewriting
			}
			for i, c := range counted {
				if got := c.settled(t, 2*len(candidates)); !maps.Equal(got, wantStarts) {
					t.Errorf("%v run %d: verifier %s started %v, want 2 per candidate of %v", tc.names, run, eng.verifiers[i].Name(), got, candidates)
				}
			}
			c1 := eng.Counters()
			wantRaces := int64(0)
			if tc.verifiers > 1 {
				wantRaces = 1
			}
			if c1.IndexAttempts-c0.IndexAttempts != 1 || c1.IndexRaces-c0.IndexRaces != wantRaces {
				t.Errorf("%v run %d: %d pipelines, %d raced; want 1 and %d", tc.names, run, c1.IndexAttempts-c0.IndexAttempts, c1.IndexRaces-c0.IndexRaces, wantRaces)
			}
		}
	}
}
