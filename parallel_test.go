package psi_test

// End-to-end check that the pooled streaming pipeline is a pure wall-clock
// optimization: answers are byte-identical to the sequential oracle across
// index kinds and worker counts.

import (
	"context"
	"slices"
	"testing"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/index"
)

func TestPooledAnswerMatchesSequential(t *testing.T) {
	ds := psi.GenerateSynthetic(psi.Tiny, 1)
	indexes := []psi.FilterIndex{mustBuildIndex(t, "ggsx", ds, 0), mustBuildIndex(t, "grapes", ds, 1), mustBuildIndex(t, "ftv", ds, 0)}
	var queries []*psi.Graph
	for i, g := range ds {
		queries = append(queries,
			psi.ExtractQuery(g, 4, int64(10+i)),
			psi.ExtractQuery(g, 9, int64(50+i)))
	}
	ctx := context.Background()
	for _, workers := range []int{0, 1, 2, 3, 8} { // 0: the shared default pool
		var pool *exec.Pool
		if workers > 0 {
			pool = exec.New(workers)
			defer pool.Close()
		}
		for _, x := range indexes {
			for qi, q := range queries {
				want, err := index.SequentialAnswer(ctx, x, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := index.Answer(ctx, x, q, pool)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s query %d, %d workers: pooled answer %v, sequential %v", x.Name(), qi, workers, got, want)
				}
			}
		}
	}
}
