package psi

// The work of one dataset query, counted by equality: a counting verifier
// stands in for the engine's verifier, on a one-worker pool and a fixed
// generated dataset, so the same query starts the same verifications on
// every run.

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
// under the default {Orig, DND} filters once and starts exactly one
// verification per rewriting, 2 per candidate, with the one verifier its
// table carries — one scan, since a second would start every candidate's
// race again — and none of anything else; {ftv, ggsx} does the same with the
// whole-graph verifier. Every run counts the same.
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
		names    []string
		verifier string
	}{
		{[]string{"ftv", "grapes", "ggsx"}, "Grapes/1"},
		{[]string{"ftv", "ggsx"}, "FTV"},
	} {
		eng, err := NewDatasetEngine(ds, EngineOptions{Indexes: tc.names, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if got := eng.verifier.Name(); got != tc.verifier {
			t.Fatalf("%v: verifier %s, want %s", tc.names, got, tc.verifier)
		}
		base := eng.verifier
		for run := 0; run < 3; run++ {
			counted := &countingVerifier{Verifier: base, starts: map[int]int{}}
			eng.verifier = counted
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
			if got := counted.settled(t, 2*len(candidates)); !maps.Equal(got, wantStarts) {
				t.Errorf("%v run %d: verifier %s started %v, want 2 per candidate of %v", tc.names, run, tc.verifier, got, candidates)
			}
			if c1 := eng.Counters(); c1.IndexAttempts-c0.IndexAttempts != 1 || c1.IndexRaces-c0.IndexRaces != 1 {
				t.Errorf("%v run %d: %d pipelines, %d raced; want 1 and 1", tc.names, run, c1.IndexAttempts-c0.IndexAttempts, c1.IndexRaces-c0.IndexRaces)
			}
		}
	}
}
