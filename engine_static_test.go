package psi_test

// The static dataset engine's public surface, pinned independently of how
// the engine stores its dataset: a static engine — built, or loaded from a
// snapshot — reports no mutation state (epoch 0 everywhere, no handles),
// refuses every mutation without disturbing its answers, clamps its shard
// count to the dataset it can never outgrow, and serves exactly the graphs
// it was given, in order.

import (
	"context"
	"slices"
	"strings"
	"testing"

	psi "github.com/psi-graph/psi"
)

func TestStaticEngineSurface(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 8)[:4]
	queries := make([]*psi.Graph, 3)
	for i := range queries {
		queries[i] = psi.ExtractQuery(ds[i], 2+i, int64(30+i))
	}
	for _, tc := range []struct {
		name       string
		opts       psi.EngineOptions
		load       bool
		wantShards int
	}{
		{"built K=1", psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, Shards: 1}, false, 0},
		{"built K=2", psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, Shards: 2}, false, 2},
		{"loaded K=1", psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, Shards: 1}, true, 0},
		{"loaded K=2", psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, Shards: 2}, true, 2},
		{"built K=64 over 4 graphs", psi.EngineOptions{Indexes: []string{"ftv"}, Shards: 64}, false, 4},
		{"loaded K=64 over 4 graphs", psi.EngineOptions{Indexes: []string{"ftv"}, Shards: 64}, true, 4},
		{"mutable K=64 over 4 graphs", psi.EngineOptions{Indexes: []string{"ftv"}, Shards: 64, Mutable: true}, false, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := newDatasetEngine(t, ds, tc.opts)
			if tc.load {
				eng = loadSnapshot(t, saveSnapshot(t, eng), psi.EngineOptions{})
			}
			if got := eng.Shards(); got != tc.wantShards {
				t.Errorf("Shards() = %d, want %d", got, tc.wantShards)
			}
			if tc.opts.Mutable {
				return // the shard count is all this row pins
			}
			if eng.Mutable() || eng.Epoch() != 0 || eng.Handles() != nil {
				t.Errorf("Mutable() = %v, Epoch() = %d, Handles() = %v; want false, 0, nil", eng.Mutable(), eng.Epoch(), eng.Handles())
			}
			got := eng.Dataset()
			if len(got) != len(ds) {
				t.Fatalf("Dataset() has %d graphs, want %d", len(got), len(ds))
			}
			for i, g := range got {
				if !g.Equal(ds[i]) || g.Name() != ds[i].Name() {
					t.Errorf("Dataset()[%d] is not input graph %d", i, i)
				}
			}
			p, err := eng.Plan(queries[0])
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Execute(context.Background(), p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Epoch() != 0 || res.Epoch != 0 {
				t.Errorf("Engine.Epoch = %d, QueryResult.Epoch = %d; want 0, 0", eng.Epoch(), res.Epoch)
			}
			before := snapAnswers(t, eng, queries)
			ctx := context.Background()
			_, addErr := eng.AddGraph(ctx, ds[0])
			_, removeErr := eng.RemoveGraph(ctx, 1)
			replaceErr := eng.ReplaceGraph(ctx, 1, ds[0])
			for name, err := range map[string]error{"AddGraph": addErr, "RemoveGraph": removeErr, "ReplaceGraph": replaceErr} {
				if err == nil || !strings.Contains(err.Error(), "require") || !strings.Contains(err.Error(), "EngineOptions.Mutable") {
					t.Errorf("%s on a static engine: %v, want the EngineOptions.Mutable requirement", name, err)
				}
			}
			if after := snapAnswers(t, eng, queries); !slices.EqualFunc(after, before, slices.Equal[[]int]) {
				t.Errorf("answers moved after refused mutations: %v, were %v", after, before)
			}
			if eng.Epoch() != 0 || eng.Handles() != nil {
				t.Errorf("refused mutations left Epoch() = %d, Handles() = %v", eng.Epoch(), eng.Handles())
			}
		})
	}
}
