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
	q := psi.ExtractQuery(ds[0], 2, 30)
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
			ctx := context.Background()
			_, addErr := eng.AddGraph(ctx, ds[0])
			_, removeErr := eng.RemoveGraph(ctx, 1)
			replaceErr := eng.ReplaceGraph(ctx, 1, ds[0])
			for name, err := range map[string]error{"AddGraph": addErr, "RemoveGraph": removeErr, "ReplaceGraph": replaceErr} {
				if err == nil || !strings.Contains(err.Error(), "require") || !strings.Contains(err.Error(), "EngineOptions.Mutable") {
					t.Errorf("%s on a static engine: %v, want the EngineOptions.Mutable requirement", name, err)
				}
			}
			// The engine still serves its input, answering its oracle through
			// every entry point at epoch 0.
			input := slices.EqualFunc(eng.Dataset(), ds, func(a, b *psi.Graph) bool { return a.Equal(b) && a.Name() == b.Name() })
			if eng.Mutable() || eng.Epoch() != 0 || eng.Handles() != nil || !input {
				t.Errorf("Mutable() = %v, Epoch() = %d, Handles() = %v, Dataset() the input %v; want false, 0, nil, true", eng.Mutable(), eng.Epoch(), eng.Handles(), input)
			}
			if err := checkPipelineAnswer(eng, q); err != nil {
				t.Error(err)
			}
		})
	}
}
